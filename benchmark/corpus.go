package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/mcnc"
)

// manifestPath is the committed per-op expected output, relative to the
// checkout root.
const manifestPath = "benchmark/testdata/manifest.tsv"

// goldenDir holds the whole-corpus golden .tln files of the mcnc.Build
// path, relative to the checkout root.
const goldenDir = "internal/expt/testdata/golden"

// entry pins one op's output: the quality of result of its network and
// the SHA-256 of its output bytes (the .tln text, or the .tln text plus
// the yield report for yield ops).
type entry struct {
	Gates, Levels, Area int
	SHA                 string
}

func (e entry) String() string {
	return fmt.Sprintf("gates=%d levels=%d area=%d sha256=%s", e.Gates, e.Levels, e.Area, e.SHA)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// outputEntry describes a threshold network's output.
func outputEntry(tn *core.Network, tln string) entry {
	st := tn.Stats()
	return entry{Gates: st.Gates, Levels: st.Levels, Area: st.Area, SHA: sha(tln)}
}

// manifest maps op keys to their expected output. In record mode every
// check stores what it sees instead of comparing.
type manifest struct {
	want   map[string]entry
	record bool
	got    map[string]entry
}

// check compares an op's output against the manifest.
func (m *manifest) check(key string, got entry) error {
	if m.record {
		if prev, ok := m.got[key]; ok && prev != got {
			return fmt.Errorf("%s: nondeterministic output: %v then %v", key, prev, got)
		}
		m.got[key] = got
		return nil
	}
	want, ok := m.want[key]
	if !ok {
		return fmt.Errorf("%s: op missing from %s", key, manifestPath)
	}
	if want != got {
		return fmt.Errorf("%s: output differs from manifest: want %v, got %v", key, want, got)
	}
	return nil
}

func parseManifest(text string) (map[string]entry, error) {
	out := make(map[string]entry)
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Split(l, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("manifest line %d: want 5 tab-separated fields", line)
		}
		var e entry
		var err error
		for i, p := range []*int{&e.Gates, &e.Levels, &e.Area} {
			if *p, err = strconv.Atoi(f[1+i]); err != nil {
				return nil, fmt.Errorf("manifest line %d: %v", line, err)
			}
		}
		e.SHA = f[4]
		if _, dup := out[f[0]]; dup {
			return nil, fmt.Errorf("manifest line %d: duplicate key %s", line, f[0])
		}
		out[f[0]] = e
	}
	return out, nil
}

func formatManifest(m map[string]entry) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# op\tgates\tlevels\tarea\tsha256 — regenerate with: bash benchmark/run.sh --write-manifest\n")
	for _, k := range keys {
		e := m[k]
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%s\n", k, e.Gates, e.Levels, e.Area, e.SHA)
	}
	return b.String()
}

// corpus is the workload-independent input of every workload: the MCNC
// circuits as BLIF text, the committed manifest, and the golden files.
type corpus struct {
	names  []string
	blif   map[string]string
	man    *manifest
	golden map[string]string // "<circuit>.<script>" → golden .tln body
}

// loadCorpus builds the corpus in the root of the checkout.
func loadCorpus(record bool) (*corpus, error) {
	c := &corpus{blif: make(map[string]string), golden: make(map[string]string)}
	for _, bm := range mcnc.All() {
		text, err := blif.WriteString(bm.Build())
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", bm.Name, err)
		}
		c.names = append(c.names, bm.Name)
		c.blif[bm.Name] = text
		for _, script := range []string{"algebraic", "boolean"} {
			data, err := os.ReadFile(filepath.Join(goldenDir, bm.Name+"."+script+".tels.tln"))
			if err != nil {
				return nil, err
			}
			c.golden[bm.Name+"."+script] = string(data)
		}
	}
	c.man = &manifest{record: record, got: make(map[string]entry)}
	if record {
		return c, nil
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	if c.man.want, err = parseManifest(string(data)); err != nil {
		return nil, err
	}
	return c, nil
}

// checkGolden compares a ψ=3, default-δ tels output of the mcnc.Build
// path with the golden file the corpus gate pins.
func (c *corpus) checkGolden(circuit, script string, tn *core.Network, tln string) error {
	st := tn.Stats()
	got := fmt.Sprintf("# gates=%d levels=%d area=%d\n%s", st.Gates, st.Levels, st.Area, tln)
	if got != c.golden[circuit+"."+script] {
		return fmt.Errorf("%s.%s.tels: output differs from %s", circuit, script, goldenDir)
	}
	return nil
}
