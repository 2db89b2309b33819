package perf

// This file defines the ingest baseline: the tracked benchmarks for the
// data-ingest pipeline (text parse + CSR build, binary snapshot
// write/load). The paper charges ingest to every platform run (Section
// 2.2.1 text format, Table 6 ingestion times), so ingest cost is
// tracked with the same before/after discipline as the engine hot paths
// in perf.go.

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hdfs"
)

// IngestScale pins the ingest suite's dataset scale. Unlike the engine
// suite (BaselineScale), ingest entries run at the standard dataset
// scale: parse throughput only stabilises on multi-megabyte inputs.
const IngestScale = 1

// IngestSuite returns the fixed ingest benchmark set on the sparse
// Friendster profile (many vertices, short lines) — the scale no
// claim-benchmark workload reads. Entry names are stable identifiers
// recorded in BENCH_pr3.json.
func IngestSuite() []Bench {
	hw := cluster.DAS4(20, 1)
	g := mustGraph("Friendster", IngestScale)

	var text bytes.Buffer
	if err := graph.WriteText(&text, g); err != nil {
		panic(err)
	}
	textBytes := text.Bytes()
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		panic(err)
	}
	binBytes := bin.Bytes()

	// A pre-recorded edge list isolates the CSR build from parsing.
	edges := graph.NewBuilder(g.NumVertices(), g.Directed())
	g.Edges(func(e graph.Edge) { edges.AddEdge(e.Src, e.Dst) })

	return []Bench{
		{
			// Full text ingest: parse the paper's interchange format and
			// build the CSR — what every experiment run pays without a
			// snapshot cache.
			Name:  "ingest-textparse-friendster",
			Bytes: int64(len(textBytes)),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := graph.ReadText(bytes.NewReader(textBytes)); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				return hdfs.IngestSeconds(hdfs.DatasetBytes(g, hdfs.FormatText), hw)
			},
		},
		{
			// CSR build alone, from an in-memory edge list.
			Name: "ingest-csrbuild-friendster",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = edges.Build()
				}
			},
		},
		{
			Name:  "ingest-binarywrite-friendster",
			Bytes: int64(len(binBytes)),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := graph.WriteBinary(io.Discard, g); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "ingest-binaryload-friendster",
			Bytes: int64(len(binBytes)),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := graph.ReadBinary(bytes.NewReader(binBytes)); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				return hdfs.IngestSeconds(hdfs.DatasetBytes(g, hdfs.FormatBinary), hw)
			},
		},
	}
}
