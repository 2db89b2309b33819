// Package monitor reproduces the paper's resource-usage methodology
// (Section 4.2): a Ganglia-style sampler that records CPU utilisation,
// memory usage, and network traffic of the master and of a
// representative computing node at 1-second intervals, then linearly
// interpolates the samples onto 100 normalised execution-time points
// so that runs of different lengths are comparable (Figures 5-10).
//
// The underlying samples are synthesised from the simulated phase
// timeline of a run plus the platform's resource signature (memory
// behaviour, network intensity), which its row in internal/platform
// carries. The signatures mirror what the paper observed: Stratosphere
// pre-allocates its full worker memory and is the heaviest network
// user; Hadoop and YARN oscillate per iteration; Giraph and GraphLab
// touch far fewer resources.
package monitor

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// Points is the number of normalised samples per curve, as in the
// paper ("we linearly interpolate the real monitoring samples to
// obtain 100 normalized usage points for each resource").
const Points = 100

// Usage is one resource curve over normalised execution time.
type Usage struct {
	// CPU is utilisation percent of the whole machine.
	CPU [Points]float64
	// MemGB is resident memory in GB (including OS and services, as
	// Ganglia reports).
	MemGB [Points]float64
	// NetMbps is inbound network traffic in Mbit/s.
	NetMbps [Points]float64
}

// Curve provenance: the paper's figures come from real Ganglia
// samples; this reproduction can synthesise curves from the simulated
// phase timeline (modelled) or interpolate real process samples
// captured by internal/obs (measured).
const (
	SourceModelled = "modelled"
	SourceMeasured = "measured"
)

// Trace is the full monitoring result for a run.
type Trace struct {
	Platform string
	// Source is SourceModelled or SourceMeasured.
	Source  string
	Master  Usage
	Compute Usage
}

// Signature is a platform's resource behaviour profile.
type Signature struct {
	// ComputeCPU is the compute node's CPU% during compute phases.
	ComputeCPU float64
	// BaseMemGB is the compute node's memory floor (OS + services).
	BaseMemGB float64
	// PeakMemGB is the compute node's memory during processing.
	PeakMemGB float64
	// Preallocates marks runtimes that grab their full memory budget
	// at startup (Stratosphere).
	Preallocates bool
	// Sawtooth marks per-iteration resource oscillation (Hadoop/YARN
	// discard and reload state every job).
	Sawtooth bool
	// PeakNetMbps is the compute node's network ceiling.
	PeakNetMbps float64
	// MasterMemGB is the master's flat memory level (~8 GB observed,
	// mostly OS/HDFS services).
	MasterMemGB float64
	// MasterNetKbps is the master's network ceiling in Kbit/s.
	MasterNetKbps float64
}

// Record synthesises the monitoring trace for a simulated run of a
// platform with resource signature sig: it samples the phase timeline
// once per simulated second (minimum 100 samples) and interpolates
// onto the 100 normalised points.
func Record(platform string, sig Signature, b cluster.Breakdown, iterations int) Trace {
	if iterations < 1 {
		iterations = 1
	}

	n := int(b.Total)
	if n < Points {
		n = Points
	}
	cpu := make([]float64, n)
	mem := make([]float64, n)
	net := make([]float64, n)
	mCPU := make([]float64, n)
	mMem := make([]float64, n)
	mNet := make([]float64, n)

	// Build the phase boundaries in normalised [0,1) time.
	type span struct {
		kind     cluster.PhaseKind
		from, to float64
	}
	var spans []span
	if b.Total > 0 {
		at := 0.0
		for _, ph := range b.PerPhase {
			w := ph.Seconds / b.Total
			spans = append(spans, span{ph.Kind, at, at + w})
			at += w
		}
	}
	kindAt := func(t float64) cluster.PhaseKind {
		for _, s := range spans {
			if t >= s.from && t < s.to {
				return s.kind
			}
		}
		return cluster.PhaseCompute
	}

	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		kind := kindAt(t)
		// Deterministic pseudo-noise so curves look sampled, not drawn.
		noise := 0.5 + 0.5*math.Sin(float64(i)*1.7+float64(len(platform)))

		// Compute node.
		switch kind {
		case cluster.PhaseCompute:
			cpu[i] = sig.ComputeCPU * (0.7 + 0.3*noise)
			net[i] = sig.PeakNetMbps * (0.3 + 0.3*noise)
		case cluster.PhaseShuffle:
			cpu[i] = sig.ComputeCPU * 0.4 * (0.7 + 0.3*noise)
			net[i] = sig.PeakNetMbps * (0.7 + 0.3*noise)
		case cluster.PhaseRead, cluster.PhaseWrite:
			cpu[i] = sig.ComputeCPU * 0.3
			net[i] = sig.PeakNetMbps * 0.5 * noise
		default: // setup
			cpu[i] = 0.5
			net[i] = sig.PeakNetMbps * 0.05
		}

		memLevel := sig.PeakMemGB
		switch {
		case sig.Preallocates:
			// Full allocation right after startup, flat thereafter.
			if t < 0.02 {
				memLevel = sig.BaseMemGB
			}
		case sig.Sawtooth:
			// Each iteration reloads and releases state.
			phase := math.Mod(t*float64(iterations), 1.0)
			memLevel = sig.BaseMemGB + (sig.PeakMemGB-sig.BaseMemGB)*(0.35+0.65*phase)
		default:
			// Ramp up while loading, then plateau.
			ramp := t / 0.15
			if ramp > 1 {
				ramp = 1
			}
			memLevel = sig.BaseMemGB + (sig.PeakMemGB-sig.BaseMemGB)*ramp
		}
		mem[i] = memLevel

		// Master node: nearly idle throughout (paper key finding).
		mCPU[i] = 0.15 + 0.25*noise
		mMem[i] = sig.MasterMemGB * (0.97 + 0.03*noise)
		mNet[i] = sig.MasterNetKbps / 1000 * (0.4 + 0.5*noise) // Mbit/s
	}

	var tr Trace
	tr.Platform = platform
	tr.Source = SourceModelled
	tr.Compute.CPU = normalize(cpu)
	tr.Compute.MemGB = normalize(mem)
	tr.Compute.NetMbps = normalize(net)
	tr.Master.CPU = normalize(mCPU)
	tr.Master.MemGB = normalize(mMem)
	tr.Master.NetMbps = normalize(mNet)
	return tr
}

// normalize linearly interpolates an arbitrary-length sample series
// onto the 100 normalised points — the paper's exact procedure.
func normalize(samples []float64) [Points]float64 {
	var out [Points]float64
	if len(samples) == 0 {
		return out
	}
	if len(samples) == 1 {
		for i := range out {
			out[i] = samples[0]
		}
		return out
	}
	for i := 0; i < Points; i++ {
		pos := float64(i) / float64(Points-1) * float64(len(samples)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(samples) {
			out[i] = samples[len(samples)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = samples[lo]*(1-frac) + samples[hi]*frac
	}
	return out
}

// Mean returns the average of a curve.
func Mean(c [Points]float64) float64 { return metrics.Mean(c[:]) }

// Max returns the maximum of a curve.
func Max(c [Points]float64) float64 {
	m := c[0]
	for _, x := range c[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
