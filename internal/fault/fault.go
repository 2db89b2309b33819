// Package fault is a deterministic, seed-driven fault injector for the
// platform engines. The paper treats failures as first-class
// experimental outcomes (Giraph's OOM crashes on STATS, Hadoop task
// failures masked by re-execution); LDBC Graphalytics goes further and
// makes robustness part of the benchmark itself. This package closes
// that gap: a chaos run declares a Plan (which faults, where, how
// often), every engine consults the Plan's Injector at well-defined
// sites (superstep barriers, task attempts, message deliveries), and
// the engines' recovery paths — task retry, checkpoint restore,
// operator restart — turn each injected fault into measurable recovery
// overhead instead of a terminal error.
//
// Determinism is the hard contract. Injection decisions are pure
// functions of (plan seed, rule index, site): a site either always or
// never fires for a given plan, independent of goroutine scheduling,
// and the injector keeps no other decision state, so a whole chaos run
// — faults, recovery and penalty — is a pure function of (seed, plan).
// Combined with recovery paths that replay only deterministic work,
// this guarantees that a fault-injected run converges to results
// byte-identical to the fault-free run — the property the chaos CI
// matrix asserts.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// Crash kills a worker or task process mid-run (Giraph worker
	// death, Hadoop task JVM exit).
	Crash Kind = iota
	// TaskFail fails one task attempt without killing the worker (the
	// Hadoop task-level fault its re-execution model was built for).
	TaskFail
	// MsgDrop loses a message bundle in flight; recovery retransmits.
	MsgDrop
	// MsgDelay delays a message bundle past the barrier; recovery waits.
	MsgDelay
	// Straggler slows one worker down by StragglerFactor without
	// failing it; recovery is speculative re-execution (where the
	// engine supports it) or barrier skew.
	Straggler
	// OOM makes one task or worker exceed its memory budget. Engines
	// recover exactly as from Crash (the container is killed and the
	// work re-executed elsewhere), so an injected OOM exercises the
	// paper's crash mode without being terminal.
	OOM
	// MsgDup delivers a message bundle twice — the at-least-once
	// transport failure the evolving-graph stream must absorb: the
	// receiver's sequence-number dedup turns the duplicate into a
	// no-op (exactly-once application).
	MsgDup

	numKinds
)

var kindNames = [...]string{"crash", "task_fail", "msg_drop", "msg_delay", "straggler", "oom", "msg_dup"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Any matches every value of a Site field in a Rule.
const Any = -1

// DefaultMaxAttempts is the per-site retry budget — Hadoop's
// mapred.map.max.attempts default of 4 (one original attempt plus three
// retries).
const DefaultMaxAttempts = 4

// StragglerFactor is how many times slower a straggling worker runs.
const StragglerFactor = 4

// ErrBudgetExhausted is the typed error every engine degrades to when
// a site keeps failing past the plan's retry budget: a clean abort, no
// panic, no hang. Test with errors.Is.
var ErrBudgetExhausted = errors.New("fault: retry budget exhausted")

// Site identifies one injection opportunity. Engines construct Sites
// at their recovery-relevant points; which fields are meaningful is
// engine-specific and documented in DESIGN.md §12.
type Site struct {
	// Engine is the consulting engine: "pregel", "mapreduce", "yarn",
	// "dataflow", or "gas".
	Engine string
	// Op is the operation class ("superstep", "map", "reduce",
	// "shuffle", "deliver", "iteration", "worker", "am-launch", or a
	// dataflow operator name).
	Op string
	// Step is the superstep / iteration / job / plan sequence number.
	Step int
	// Task is the task, partition, or operator index (Any if not
	// meaningful).
	Task int
	// Attempt is how many times this site has already failed; Retry
	// and pregel's restore loop number it, so rules can target first
	// attempts only.
	Attempt int
}

// Rule matches a class of sites and fires a fault there. The zero
// Step/Task/Attempt match only zero; use Any (-1) to match every
// value. A Prob of 0 is treated as 1 (deterministic rules are the
// common case; probabilistic rules set Prob explicitly).
type Rule struct {
	Kind    Kind
	Engine  string // "" matches any engine
	Op      string // "" matches any op
	Step    int
	Task    int
	Attempt int
	// Prob is the per-site firing probability; the decision is a pure
	// hash of (seed, rule, site), not a shared RNG, so it is identical
	// across runs and goroutine schedules.
	Prob float64
}

func (r Rule) matches(s Site) bool {
	if r.Engine != "" && r.Engine != s.Engine {
		return false
	}
	if r.Op != "" && r.Op != s.Op {
		return false
	}
	if r.Step != Any && r.Step != s.Step {
		return false
	}
	if r.Task != Any && r.Task != s.Task {
		return false
	}
	if r.Attempt != Any && r.Attempt != s.Attempt {
		return false
	}
	return true
}

// Plan is a complete chaos schedule for one run.
type Plan struct {
	// Seed drives every injection decision.
	Seed int64
	// CheckpointEvery is the pregel engine's checkpoint cadence under
	// the plan: a checkpoint every N supersteps, which a crash restores
	// (0 = no checkpoint; a crash restarts from the initial state).
	CheckpointEvery int
	Rules           []Rule
}

// CrashAt returns a rule that fails the first attempt of every site at
// the given step: one crash at a pregel superstep or gas iteration, one
// per task at a mapreduce job or per operator at a dataflow plan, each
// recovered by one retry or restore.
func CrashAt(step int) Rule {
	return Rule{Kind: Crash, Step: step, Task: Any, Attempt: 0, Prob: 1}
}

// DefaultPlan is the standard chaos plan: CrashAt(0), so every engine
// recovers on every workload, then 2 % first-attempt crashes and OOMs,
// dropped and delayed messages, and stragglers. No rule fires on a
// retry, so every fault is recovered within the retry budget and a
// DefaultPlan run must converge to fault-free results.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:            seed,
		CheckpointEvery: 2,
		Rules: []Rule{
			CrashAt(0),
			{Kind: Crash, Step: Any, Task: Any, Attempt: 0, Prob: 0.02},
			{Kind: OOM, Step: Any, Task: Any, Attempt: 0, Prob: 0.02},
			{Kind: MsgDrop, Step: Any, Task: Any, Attempt: Any, Prob: 0.02},
			{Kind: MsgDelay, Step: Any, Task: Any, Attempt: Any, Prob: 0.02},
			{Kind: Straggler, Step: Any, Task: Any, Attempt: Any, Prob: 0.02},
		},
	}
}

// StreamPlan is the chaos schedule for streaming-update delivery:
// dropped, duplicated, and delayed (hence reordered) update batches at
// the "stream"/"deliver" sites the evolve transport consults. Every
// fault is recoverable — drops by sender retransmission, duplicates
// and reordering by the receiver's sequence-number protocol — so a
// StreamPlan run must converge to state byte-identical to clean
// in-order application, the exactly-once contract the stream CI gate
// asserts across seeds.
func StreamPlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		Rules: []Rule{
			{Kind: MsgDrop, Engine: "stream", Op: "deliver", Step: Any, Task: Any, Attempt: Any, Prob: 0.20},
			{Kind: MsgDup, Engine: "stream", Op: "deliver", Step: Any, Task: Any, Attempt: Any, Prob: 0.15},
			{Kind: MsgDelay, Engine: "stream", Op: "deliver", Step: Any, Task: Any, Attempt: Any, Prob: 0.20},
		},
	}
}

// Injector evaluates a Plan. All methods are safe for concurrent use
// and safe on a nil receiver (the disabled state, like a nil
// obs.Session).
type Injector struct {
	plan     Plan
	injected atomic.Int64
	byKind   [numKinds]atomic.Int64

	// Registry counters, resolved once; nil handles are single-branch
	// no-ops.
	cInjected *obs.Counter
	cKind     [numKinds]*obs.Counter
}

// New returns an injector for the plan. reg may be nil; when set, the
// injector advances fault.injected and per-kind fault.<kind> counters
// on every firing.
func New(plan Plan, reg *obs.Registry) *Injector {
	in := &Injector{plan: plan, cInjected: reg.Counter("fault.injected")}
	for k := Kind(0); k < numKinds; k++ {
		in.cKind[k] = reg.Counter("fault." + k.String())
	}
	return in
}

// CheckpointEvery returns the plan's pregel checkpoint cadence (0 for
// a nil injector: no checkpoints).
func (in *Injector) CheckpointEvery() int {
	if in == nil {
		return 0
	}
	return in.plan.CheckpointEvery
}

// Injected reports how many faults have fired so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// InjectedOf reports how many faults of one kind have fired.
func (in *Injector) InjectedOf(k Kind) int64 {
	if in == nil || k >= numKinds {
		return 0
	}
	return in.byKind[k].Load()
}

// fire evaluates the plan's rules of the given kinds at s, in rule
// order, and returns the kind of the first that fires.
func (in *Injector) fire(s Site, kinds ...Kind) (Kind, bool) {
	if in == nil {
		return 0, false
	}
	for i, r := range in.plan.Rules {
		wanted := false
		for _, k := range kinds {
			if r.Kind == k {
				wanted = true
				break
			}
		}
		if !wanted || !r.matches(s) {
			continue
		}
		if !decide(in.plan.Seed, i, s, r.Prob) {
			continue
		}
		in.injected.Add(1)
		in.byKind[r.Kind].Add(1)
		in.cInjected.Add(1)
		in.cKind[r.Kind].Add(1)
		return r.Kind, true
	}
	return 0, false
}

// failAt reports whether a process-failure fault (Crash, TaskFail, or
// OOM) fires at s. Engines reach it only through Attempt and treat all
// three the same way for recovery: discard the attempt's work and
// retry or restore.
func (in *Injector) failAt(s Site) (Kind, bool) {
	return in.fire(s, Crash, TaskFail, OOM)
}

// DropAt reports whether a message bundle is lost at s; the engine
// must retransmit it (and account the extra traffic as recovery
// overhead).
func (in *Injector) DropAt(s Site) bool {
	_, ok := in.fire(s, MsgDrop)
	return ok
}

// DelayAt reports whether a message bundle is delayed past the
// barrier at s; the engine charges an extra barrier wait.
func (in *Injector) DelayAt(s Site) bool {
	_, ok := in.fire(s, MsgDelay)
	return ok
}

// DupAt reports whether a message bundle is delivered twice at s; the
// receiver must deduplicate it.
func (in *Injector) DupAt(s Site) bool {
	_, ok := in.fire(s, MsgDup)
	return ok
}

// Attempt is the one attempt rule: it consults failAt for attempt
// s.Attempt at s. lost reports that the attempt failed; err is non-nil
// when that was the site's DefaultMaxAttempts-th failure, and it wraps
// ErrBudgetExhausted and names the site. A caller that recovers by other
// means than re-running the unit in place (pregel's checkpoint restore)
// numbers the attempts itself; the others call Retry.
func (in *Injector) Attempt(s Site) (lost bool, err error) {
	kind, ok := in.failAt(s)
	if !ok {
		return false, nil
	}
	if s.Attempt+1 < DefaultMaxAttempts {
		return true, nil
	}
	where := fmt.Sprintf("%s %s at step %d", s.Engine, s.Op, s.Step)
	if s.Task != Any {
		where += fmt.Sprintf(", task %d", s.Task)
	}
	return true, fmt.Errorf("%s: injected %v persisted through %d attempts: %w",
		where, kind, s.Attempt+1, ErrBudgetExhausted)
}

// Retry runs body for attempts 0, 1, ... of the unit at s until one is
// not lost, calling lost after each attempt that is, and returns the
// site of the attempt that held, where the caller consults StragglerAt.
// The DefaultMaxAttempts-th lost attempt ends it with Attempt's error.
// A nil injector runs body once and never calls lost.
func (in *Injector) Retry(s Site, body, lost func(attempt int)) (Site, error) {
	if in == nil {
		body(0)
		return s, nil
	}
	for s.Attempt = 0; ; s.Attempt++ {
		body(s.Attempt)
		failed, err := in.Attempt(s)
		if !failed {
			return s, nil
		}
		lost(s.Attempt)
		if err != nil {
			return s, err
		}
	}
}

// StragglerAt reports whether the worker at s is slowed down, and by
// what factor (StragglerFactor when it is).
func (in *Injector) StragglerAt(s Site) (float64, bool) {
	if _, ok := in.fire(s, Straggler); !ok {
		return 1, false
	}
	return StragglerFactor, true
}

// BackoffUnits is the modelled wait before retry attempt (0-based) in
// task-launch units of the cluster cost model (one unit = one
// task-wave overhead): capped exponential, 1, 2, 4, ... up to 8 —
// Hadoop's retry pacing. The simulated engines never sleep, so the
// penalty shows up in the simulated T instead of real wall-clock.
func BackoffUnits(attempt int) int {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 3 {
		return 8
	}
	return 1 << uint(attempt)
}

// decide is the pure injection decision: a splitmix64-style hash of
// (seed, rule index, site) compared against the rule's probability.
// Identical inputs give identical outcomes on every run and schedule.
func decide(seed int64, rule int, s Site, prob float64) bool {
	if prob <= 0 {
		prob = 1 // zero value means "always" — deterministic rules are the common case
	}
	if prob >= 1 {
		return true
	}
	h := mix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = mix(h ^ uint64(rule)*0xbf58476d1ce4e5b9)
	h = mix(h ^ strHash(s.Engine))
	h = mix(h ^ strHash(s.Op))
	h = mix(h ^ uint64(int64(s.Step)))
	h = mix(h ^ uint64(int64(s.Task))*0x94d049bb133111eb)
	h = mix(h ^ uint64(int64(s.Attempt)))
	return float64(h>>11)/float64(1<<53) < prob
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// strHash is FNV-1a.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Overhead converts a fault-free and a fault-injected execution time
// into the recovery-overhead penalty (fractional increase in T, which
// is also the fractional decrease in EPS since the workload is
// fixed). Returns 0 when the baseline is degenerate.
func Overhead(baseSeconds, chaosSeconds float64) float64 {
	if baseSeconds <= 0 || math.IsNaN(chaosSeconds) {
		return 0
	}
	return (chaosSeconds - baseSeconds) / baseSeconds
}
