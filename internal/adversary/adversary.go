package adversary

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cage"
	"cage/internal/arch"
	"cage/internal/exec"
)

// Verdict classifies one scenario run.
type Verdict string

const (
	// VerdictExploited means the run completed and the damage or
	// leakage indicator fired.
	VerdictExploited Verdict = "exploited"
	// VerdictTrapped means a runtime defense aborted the run; the
	// Outcome carries the trap's TrapClass.
	VerdictTrapped Verdict = "trapped"
	// VerdictMitigatedTiming means the attack's speculative channel is
	// closed by the modeled mitigations: every executed speculation
	// site was fenced and the sandbox boundary flushed the BTB.
	VerdictMitigatedTiming Verdict = "mitigated-timing"
	// VerdictHarmless means the run completed without damage.
	VerdictHarmless Verdict = "harmless"
)

// TrapClass groups exec trap codes into the violation classes of the
// paper's security evaluation (§3, §7.4).
type TrapClass string

const (
	// ClassMemorySafety covers spatial/temporal violations: MTE tag
	// mismatches, segment-instruction violations, and host-side
	// allocator aborts (invalid/double free surface as host traps).
	ClassMemorySafety TrapClass = "memory-safety"
	// ClassSandbox covers attempted sandbox escapes caught by bounds
	// checks or guard pages.
	ClassSandbox TrapClass = "sandbox"
	// ClassPtrAuth covers failed pointer authentications.
	ClassPtrAuth TrapClass = "ptrauth"
	// ClassOther covers every remaining trap (unreachable, stack
	// overflow, fuel, ...): a defense did fire, but not one of the
	// paper's evaluated mitigations.
	ClassOther TrapClass = "other"
)

// ClassOf maps a trap code to its verdict class.
func ClassOf(code exec.TrapCode) TrapClass {
	switch code {
	case exec.TrapTagMismatch, exec.TrapSegment, exec.TrapHost:
		return ClassMemorySafety
	case exec.TrapOutOfBounds:
		return ClassSandbox
	case exec.TrapAuthFailure:
		return ClassPtrAuth
	}
	return ClassOther
}

// Outcome is a verdict plus its supporting detail.
type Outcome struct {
	Verdict Verdict
	// Class is the trap's violation class when Verdict is trapped.
	Class TrapClass
	// Detail is a human-readable explanation (the trap's name,
	// unfenced-site counts, damage indicators); it does not participate
	// in matrix matching.
	Detail string
}

// Observation is the raw material an oracle classifies: how the run
// ended and the timing-model events it produced.
type Observation struct {
	// Trapped reports whether the run aborted with a trap.
	Trapped bool
	// TrapCode is valid when Trapped.
	TrapCode exec.TrapCode
	// Damage is the entry point's damage indicator (nonzero =
	// exploited) for runs that completed.
	Damage int64
	// Events is the run's event delta, the observable the speculative
	// oracles inspect.
	Events arch.Counter
}

// Scenario is one adversarial program plus its oracle.
type Scenario interface {
	// Name uniquely identifies the scenario within the matrix.
	Name() string
	// Family groups scenarios: "table2", "speculative", "corruption".
	Family() string
	// Program returns the scenario's guest module. MiniC scenarios
	// compile their source with the preset's toolchain; raw-wasm
	// scenarios may ignore tc and decode a prebuilt binary.
	Program(tc *cage.Toolchain) (*cage.Module, error)
	// Entry returns the exported entry point and its attack argument.
	Entry() (string, uint64)
	// Expect is the oracle: the verdict required under cfg.
	Expect(cfg cage.Config) Outcome
	// Classify turns one observed run under cfg into a verdict.
	Classify(cfg cage.Config, obs Observation) Outcome
}

// prog is the shared Scenario implementation: a MiniC program plus
// family-specific oracle hooks.
type prog struct {
	name, family string
	source       string
	entry        string
	arg          uint64
	expect       func(cfg cage.Config) Outcome
	classify     func(cfg cage.Config, obs Observation) Outcome
}

func (p *prog) Name() string   { return p.name }
func (p *prog) Family() string { return p.family }
func (p *prog) Program(tc *cage.Toolchain) (*cage.Module, error) {
	return tc.CompileSource(p.source)
}
func (p *prog) Entry() (string, uint64)        { return p.entry, p.arg }
func (p *prog) Expect(cfg cage.Config) Outcome { return p.expect(cfg) }
func (p *prog) Classify(cfg cage.Config, obs Observation) Outcome {
	return p.classify(cfg, obs)
}

// Preset is one named configuration column of the matrix.
type Preset struct {
	Name   string
	Config cage.Config
}

// Presets returns the matrix's configuration columns: the wasm64
// Table 3 presets plus the Spectre-hardened one, resolved through
// cage.ConfigByName so the matrix can never drift from the CLI names.
func Presets() []Preset {
	names := []string{"baseline64", "memsafety", "sandbox", "ptrauth", "full", "hardened"}
	out := make([]Preset, 0, len(names))
	for _, n := range names {
		cfg, err := cage.ConfigByName(n)
		if err != nil {
			panic(err) // static name list; unreachable
		}
		out = append(out, Preset{Name: n, Config: cfg})
	}
	return out
}

// Matrix pairs the scenarios to evaluate with the presets to evaluate
// them under.
type Matrix struct {
	Scenarios []Scenario
	Presets   []Preset
}

// DefaultMatrix is every shipped scenario against every preset.
func DefaultMatrix() Matrix {
	return Matrix{Scenarios: AllScenarios(), Presets: Presets()}
}

// AllScenarios returns the three shipped families in order.
func AllScenarios() []Scenario {
	var out []Scenario
	out = append(out, Table2Scenarios()...)
	out = append(out, SpeculativeScenarios()...)
	out = append(out, CorruptionScenarios()...)
	return out
}

// Cell is one (scenario, preset) evaluation.
type Cell struct {
	Scenario string
	Family   string
	Config   string
	Expected Outcome
	Observed Outcome
	// Match reports oracle agreement: same verdict and same class.
	Match bool
	// Fuel is the run's event total, so the table doubles as a coarse
	// mitigation-tax trace.
	Fuel uint64
}

// Table is the verdict matrix.
type Table struct {
	Cells []Cell
}

// Mismatches returns the cells whose observed verdict disagrees with
// the oracle; empty exactly when the security claims hold.
func (t *Table) Mismatches() []Cell {
	var out []Cell
	for _, c := range t.Cells {
		if !c.Match {
			out = append(out, c)
		}
	}
	return out
}

// Cell returns the (scenario, config) cell, or false.
func (t *Table) Cell(scenario, config string) (Cell, bool) {
	for _, c := range t.Cells {
		if c.Scenario == scenario && c.Config == config {
			return c, true
		}
	}
	return Cell{}, false
}

// cellTimeout bounds one scenario run; adversarial programs are small,
// so this only guards against a scenario regressing into an infinite
// loop under some configuration.
const cellTimeout = 30 * time.Second

// Run evaluates the matrix: every scenario under every preset, each in
// a fresh instance, classified by the scenario's oracle. Infrastructure
// failures (compile or link errors) abort the run; guest traps are
// observations, not errors.
func Run(m Matrix) (*Table, error) {
	tbl := &Table{}
	for _, p := range m.Presets {
		tc := cage.NewToolchain(p.Config)
		rt := cage.NewRuntime(p.Config)
		for _, s := range m.Scenarios {
			cell, err := runCell(tc, rt, p, s)
			if err != nil {
				return nil, fmt.Errorf("adversary: %s under %s: %w", s.Name(), p.Name, err)
			}
			tbl.Cells = append(tbl.Cells, cell)
		}
	}
	return tbl, nil
}

// runCell executes one matrix cell.
func runCell(tc *cage.Toolchain, rt *cage.Runtime, p Preset, s Scenario) (Cell, error) {
	mod, err := s.Program(tc)
	if err != nil {
		return Cell{}, err
	}
	inst, err := rt.Instantiate(mod)
	if err != nil {
		return Cell{}, err
	}
	defer inst.Close()
	entry, arg := s.Entry()
	res, callErr := inst.Call(context.Background(), entry, []uint64{arg},
		cage.WithTimeout(cellTimeout))
	obs := Observation{Events: res.Events}
	if callErr != nil {
		var t *exec.Trap
		if !errors.As(callErr, &t) {
			return Cell{}, callErr
		}
		obs.Trapped = true
		obs.TrapCode = t.Code
	} else if len(res.Values) > 0 {
		obs.Damage = int64(res.Values[0])
	}
	observed := s.Classify(p.Config, obs)
	expected := s.Expect(p.Config)
	return Cell{
		Scenario: s.Name(),
		Family:   s.Family(),
		Config:   p.Name,
		Expected: expected,
		Observed: observed,
		Match:    observed.Verdict == expected.Verdict && observed.Class == expected.Class,
		Fuel:     res.Fuel,
	}, nil
}

// classifyDamage is the oracle hook shared by the damage-indicator
// families (table2, corruption): a trap is classified by its code, a
// completed run by its indicator.
func classifyDamage(_ cage.Config, obs Observation) Outcome {
	if obs.Trapped {
		return Outcome{Verdict: VerdictTrapped, Class: ClassOf(obs.TrapCode),
			Detail: obs.TrapCode.String()}
	}
	if obs.Damage != 0 {
		return Outcome{Verdict: VerdictExploited,
			Detail: fmt.Sprintf("damage indicator %d", obs.Damage)}
	}
	return Outcome{Verdict: VerdictHarmless}
}
