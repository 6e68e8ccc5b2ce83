package privascope_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsCiteWhatExists keeps the docs' performance citations resolvable. In
// README.md and docs/*.md every backticked Go benchmark is declared in some
// _test.go, and every backticked token shaped like a benchmark/ name — a
// workload, an end-to-end metric, or `<layer>.<metric>` under one of
// BENCHMARK.json's layer prefixes — is one BENCHMARK.json defines. And the
// measurement system deleted in favour of benchmark/ (its converter, its
// committed records, its make targets) is named nowhere but in history:
// CHANGES.md, ROADMAP.md's Recent section and the frozen benchmark/README.md.
// Every backticked `-flag` is one a command's FlagSet, the benchmark driver or
// the property harness defines, or one of the go tool's that the docs use; one
// cited after a command's name (`anonrisk -max-rows`) is that command's own.
// And a CHANGES.md entry from PR 24 on is at most 2 KB: it is what the next
// session reads first.
func TestDocsCiteWhatExists(t *testing.T) {
	var catalog struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &catalog); err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	var workloadPrefixes, layers []string
	for _, w := range catalog.Workloads {
		defined[w.Name] = true
		prefix, _, _ := strings.Cut(w.Name, "_")
		workloadPrefixes = append(workloadPrefixes, prefix)
	}
	for _, m := range catalog.EndToEnd {
		defined[m.Name] = true
	}
	for _, m := range catalog.PerLayer {
		defined[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers = append(layers, layer)
	}
	benchmarkName := regexp.MustCompile(
		`^(?:(?:` + strings.Join(workloadPrefixes, "|") + `)_[a-z_]+` +
			`|(?:` + strings.Join(layers, "|") + `)\.[a-z0-9_]+(?:\.[a-z0-9_]+)?` +
			`|[a-z0-9]+(?:_[a-z0-9]+)*_(?:ms|s|mb))$`)

	flags := map[string]bool{ // the go tool's
		"race": true, "cpu": true, "count": true, "run": true, "bench": true, "benchtime": true,
		"fuzz": true, "fuzztime": true, "v": true, "short": true, "timeout": true,
	}
	flagDefinition := regexp.MustCompile(`\.(?:String|Int|Int64|Bool|Duration|Float64)(?:Var)?\((?:&[\w.]+, )?"([\w.-]+)"`)
	flagSources, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flagSources = append(flagSources, filepath.Join("benchmark", "main.go"), filepath.Join("internal", "proptest", "proptest.go"))
	commandFlags := make(map[string]map[string]bool) // cmd/<name> -> the flags it defines
	for _, path := range flagSources {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		own := make(map[string]bool)
		for _, m := range flagDefinition.FindAllSubmatch(text, -1) {
			flags[string(m[1])] = true
			own[string(m[1])] = true
		}
		if filepath.Dir(filepath.Dir(path)) == "cmd" {
			commandFlags[filepath.Base(filepath.Dir(path))] = own
		}
	}

	declared := make(map[string]bool)
	goBenchmark := regexp.MustCompile(`(?m)^func (Benchmark[A-Z]\w*)\(`)
	// Spelled in pieces so that a search for the old system's names does not
	// find this file.
	retired := regexp.MustCompile(`BENCH_\w+\.json|bench` + `json|bench-` + `smoke|bench-` + `compare`)
	var docs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			hidden := path != "." && strings.HasPrefix(d.Name(), ".") && path != ".github" && path != ".claude"
			if hidden || path == filepath.Join("benchmark", "out") {
				return filepath.SkipDir // .git, the benchmark's build and traces, the gate's worktree
			}
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range goBenchmark.FindAllSubmatch(text, -1) {
				declared[string(m[1])] = true
			}
		}
		if path == "README.md" || (filepath.Dir(path) == "docs" && filepath.Ext(path) == ".md") {
			docs = append(docs, path)
		}
		switch path {
		case "CHANGES.md", "ISSUE.md", "REVIEW.md", filepath.Join("benchmark", "README.md"):
			return nil // history, this change's own paperwork, and the frozen benchmark
		case "ROADMAP.md":
			text = []byte(strings.Split(string(text), "\n## Recent")[0])
		}
		if m := retired.Find(text); m != nil {
			t.Errorf("%s names %q, part of the measurement system benchmark/ replaced", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	backticked := regexp.MustCompile("`([^`\n]+)`")
	citedBenchmark := regexp.MustCompile(`^Benchmark[A-Z]\w*`)
	citedFlag := regexp.MustCompile(`(?:^|\s)--?([a-z][\w.-]*)`)
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllSubmatch(text, -1) {
			token := string(m[1])
			if name := citedBenchmark.FindString(token); name != "" && !declared[name] {
				t.Errorf("%s cites `%s`, which no _test.go declares", path, token)
			}
			if benchmarkName.MatchString(token) && !defined[token] {
				t.Errorf("%s cites `%s`, shaped like a benchmark/ workload or metric, which BENCHMARK.json does not define", path, token)
			}
			command, _, _ := strings.Cut(token, " ")
			for _, f := range citedFlag.FindAllStringSubmatch(token, -1) {
				if !flags[f[1]] {
					t.Errorf("%s cites `%s`: no command, benchmark/main.go or internal/proptest defines a -%s flag, and it is not one of the go tool's", path, token, f[1])
				} else if own := commandFlags[command]; own != nil && !own[f[1]] {
					t.Errorf("%s cites `%s`: %s defines no -%s flag", path, token, command, f[1])
				}
			}
		}
	}

	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entryStart := regexp.MustCompile(`(?m)^- `)
	entryNumber := regexp.MustCompile(`^- PR (\d+):`)
	starts := entryStart.FindAllIndex(changes, -1)
	for i, start := range starts {
		end := len(changes)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		entry := changes[start[0]:end]
		if m := entryNumber.FindSubmatch(entry); m != nil {
			if pr, _ := strconv.Atoi(string(m[1])); pr >= 24 && len(entry) > 2048 {
				t.Errorf("CHANGES.md: the entry for PR %d is %d bytes, over the 2 KB an entry may take", pr, len(entry))
			}
		}
	}
}
