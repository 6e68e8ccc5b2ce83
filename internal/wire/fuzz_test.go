package wire

import (
	"bytes"
	"testing"
)

// FuzzStringTable hammers the one string-table reader and the cursor under
// it with arbitrary bytes, on behalf of PSM, PSEF and PSHO alike: it must
// never panic, and a table it accepts must be exactly what Buf.StringTable
// writes for the strings it returned (read∘write is a fixpoint, so no two
// byte strings decode to the same table). Whatever follows the table is
// pulled through the typed column readers, which must stay in bounds for any
// count.
func FuzzStringTable(f *testing.F) {
	f.Add(tableBytes("", "doctor", "ehr", ""))
	f.Add(append(tableBytes("", "a"), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13))
	for _, seed := range hostileTables() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, strs, err := readTable(data)
		if err != nil {
			if strs != nil {
				t.Fatalf("read returned both strings and error %v", err)
			}
			return
		}
		if strs[0] != "" {
			t.Fatalf("accepted a table whose entry 0 is %q", strs[0])
		}
		consumed := data[:len(data)-c.Len()]
		if rewritten := tableBytes(strs...); !bytes.Equal(rewritten, consumed) {
			t.Fatalf("table %q rewrites as %x, was read from %x", strs, rewritten, consumed)
		}
		n := c.Len()
		if n > 0 {
			n = int(data[len(data)-1]) % (n + 2) // sometimes one entry too many
		}
		before := c.Len()
		if vs, err := c.U32s(n); err == nil && (len(vs) != n || before-c.Len() != 4*n) {
			t.Fatalf("U32s(%d) returned %d entries and consumed %d bytes", n, len(vs), before-c.Len())
		}
		before = c.Len()
		if vs, err := c.U64s(n); err == nil && (len(vs) != n || before-c.Len() != 8*n) {
			t.Fatalf("U64s(%d) returned %d entries and consumed %d bytes", n, len(vs), before-c.Len())
		}
		if _, err := c.Take(c.Len() + 1); err == nil {
			t.Fatal("Take past the end succeeded")
		}
	})
}
