package adversary

import "testing"

// runDefault evaluates the default matrix once per test binary.
var matrixTable *Table

func defaultTable(t *testing.T) *Table {
	t.Helper()
	if matrixTable == nil {
		tbl, err := Run(DefaultMatrix())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		matrixTable = tbl
	}
	return matrixTable
}

// TestMatrixMatchesOracle is the headline assertion: every cell of the
// scenario × preset matrix agrees with its oracle.
func TestMatrixMatchesOracle(t *testing.T) {
	tbl := defaultTable(t)
	wantCells := len(AllScenarios()) * len(Presets())
	if len(tbl.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d", len(tbl.Cells), wantCells)
	}
	for _, c := range tbl.Mismatches() {
		t.Errorf("%s under %s: observed %+v, oracle expects %+v",
			c.Scenario, c.Config, c.Observed, c.Expected)
	}
}

// TestTable2StillMitigatedUnderHardened pins the acceptance criterion
// that the Spectre hardening does not regress Table 2: every CVE case
// traps with the memory-safety class under full AND hardened.
func TestTable2StillMitigatedUnderHardened(t *testing.T) {
	tbl := defaultTable(t)
	for _, s := range Table2Scenarios() {
		for _, cfg := range []string{"full", "hardened"} {
			c, ok := tbl.Cell(s.Name(), cfg)
			if !ok {
				t.Fatalf("no cell for %s under %s", s.Name(), cfg)
			}
			if c.Observed.Verdict != VerdictTrapped {
				t.Errorf("%s under %s: %s, want trapped", s.Name(), cfg, c.Observed.Verdict)
			}
		}
	}
}

// TestSpeculativeMitigatedOnlyByHardened pins the second criterion: the
// modeled speculative leaks are closed by hardened and by nothing else.
func TestSpeculativeMitigatedOnlyByHardened(t *testing.T) {
	tbl := defaultTable(t)
	for _, s := range SpeculativeScenarios() {
		for _, p := range Presets() {
			c, ok := tbl.Cell(s.Name(), p.Name)
			if !ok {
				t.Fatalf("no cell for %s under %s", s.Name(), p.Name)
			}
			want := VerdictExploited
			if p.Name == "hardened" {
				want = VerdictMitigatedTiming
			}
			if c.Observed.Verdict != want {
				t.Errorf("%s under %s: %s (%s), want %s",
					s.Name(), p.Name, c.Observed.Verdict, c.Observed.Detail, want)
			}
		}
	}
}

// TestCorruptionUnmitigatedEverywhere pins the third criterion:
// in-sandbox corruption succeeds under every preset — a trap here would
// be a false positive in some defense.
func TestCorruptionUnmitigatedEverywhere(t *testing.T) {
	tbl := defaultTable(t)
	for _, s := range CorruptionScenarios() {
		for _, p := range Presets() {
			c, ok := tbl.Cell(s.Name(), p.Name)
			if !ok {
				t.Fatalf("no cell for %s under %s", s.Name(), p.Name)
			}
			if c.Observed.Verdict != VerdictExploited {
				t.Errorf("%s under %s: %s (%s), want exploited",
					s.Name(), p.Name, c.Observed.Verdict, c.Observed.Detail)
			}
		}
	}
}

// runUnder evaluates scenarios under the named presets only.
func runUnder(t *testing.T, scenarios []Scenario, presets ...string) *Table {
	t.Helper()
	var ps []Preset
	for _, p := range Presets() {
		for _, name := range presets {
			if p.Name == name {
				ps = append(ps, p)
			}
		}
	}
	tbl, err := Run(Matrix{Scenarios: scenarios, Presets: ps})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tbl
}

// TestBenignInputsStillWork verifies full does not break the Table 2
// programs on non-malicious inputs (no false positives).
func TestBenignInputsStillWork(t *testing.T) {
	benign := map[string]uint64{
		"CVE-2023-4863":  0,
		"CVE-2014-0160":  16,
		"CVE-2021-3999":  0,
		"CVE-2018-14550": 16,
		"CVE-2021-22940": 0,
		"CVE-2021-33574": 0,
		"CVE-2020-1752":  0,
		"CVE-2019-11932": 0,
	}
	var scenarios []Scenario
	for _, cs := range Table2Cases() {
		cs.Arg = benign[cs.CVE]
		scenarios = append(scenarios, cs.scenario())
	}
	for _, c := range runUnder(t, scenarios, "full").Cells {
		t.Run(c.Scenario, func(t *testing.T) {
			if c.Observed.Verdict == VerdictTrapped {
				t.Fatalf("false positive: benign input trapped (%s)", c.Observed.Detail)
			}
		})
	}
}

// TestListing1VTableHijack reproduces the paper's Listing 1: the stack
// overflow redirects the indirect call on the baseline; under full the
// overflow itself is caught by MTE before any control-flow damage.
func TestListing1VTableHijack(t *testing.T) {
	cs := CaseStudy{CVE: "listing-1", Source: listing1Source, Arg: 32}
	tbl := runUnder(t, []Scenario{cs.scenario()}, "baseline64", "full")
	base, _ := tbl.Cell(cs.CVE, "baseline64")
	if base.Observed.Verdict == VerdictTrapped {
		t.Fatalf("baseline trapped: %s", base.Observed.Detail)
	}
	if base.Observed.Verdict != VerdictExploited {
		t.Skip("overflow did not reach the vtable on this layout")
	}
	caged, _ := tbl.Cell(cs.CVE, "full")
	if caged.Observed.Verdict != VerdictTrapped {
		t.Errorf("Cage failed to stop the vtable hijack (%s %s)", caged.Observed.Verdict, caged.Observed.Detail)
	}
}

// listing1Source is the paper's Listing 1: a stack overflow that
// overwrites a vtable function pointer, redirecting an indirect call.
const listing1Source = `
long foo_called = 0;
long bar_called = 0;
void foo(void) { foo_called = 1; }
void bar(void) { bar_called = 1; }
struct VTable { void (*f)(void); void (*g)(void); };
long attack(long inputLen) {
    struct VTable vtable;
    char buf[16];
    vtable.f = bar;
    vtable.g = foo;
    for (long i = 0; i < inputLen; i++) {
        buf[i] = (char)(i == 16 ? 2 : 0);  // strcpy(buf, crafted input):
    }                                      // rewrites f with foo's index
    vtable.f();
    return foo_called;                     // 1 = control flow hijacked
}`

// TestPresetsResolve pins the matrix columns to the shared CLI names.
func TestPresetsResolve(t *testing.T) {
	ps := Presets()
	if len(ps) != 6 {
		t.Fatalf("have %d presets, want 6", len(ps))
	}
	for _, p := range ps {
		if p.Name == "hardened" && !p.Config.SpectreHarden {
			t.Errorf("hardened preset lost SpectreHarden")
		}
		if p.Name != "hardened" && p.Config.SpectreHarden {
			t.Errorf("%s preset unexpectedly SpectreHarden", p.Name)
		}
	}
}
