package anonymize

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTable builds a deterministic numeric table with the given number of
// rows for the anonymisation micro-benchmarks.
func benchTable(rows int) *Table {
	rng := rand.New(rand.NewSource(1))
	t := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "height", Role: RoleQuasiIdentifier},
		Column{Name: "weight", Role: RoleSensitive},
	)
	for i := 0; i < rows; i++ {
		t.MustAddRow(
			Num(float64(18+rng.Intn(70))),
			Num(float64(150+rng.Intn(50))),
			Num(float64(45+rng.Intn(90))),
		)
	}
	return t
}

func BenchmarkEquivalenceClasses(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		t := benchTable(rows)
		anon, err := Spec{"age": NumericBinning{Width: 10}, "height": NumericBinning{Width: 10}}.Apply(t)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := anon.EquivalenceClasses(ctx, []string{"age", "height"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValueRisks(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		t := benchTable(rows)
		anon, err := Spec{"age": NumericBinning{Width: 10}, "height": NumericBinning{Width: 10}}.Apply(t)
		if err != nil {
			b.Fatal(err)
		}
		opts := ValueRiskOptions{VisibleColumns: []string{"age", "height"}, TargetColumn: "weight", Closeness: 5}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ValueRisks(ctx, anon, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReidentificationRisk(b *testing.B) {
	t := benchTable(1000)
	anon, err := Spec{"age": NumericBinning{Width: 10}, "height": NumericBinning{Width: 10}}.Apply(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReidentificationRisk(ctx, anon, []string{"age", "height"}, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}
