package hdfs

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(100, false)
	for i := 0; i < 99; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return b.Build()
}

// TestDatasetBytes checks that the two formats report the exact
// serialised sizes — the quantity the ingest model charges for.
func TestDatasetBytes(t *testing.T) {
	g := testGraph(t)

	var text bytes.Buffer
	if err := graph.WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	if got, want := DatasetBytes(g, FormatText), int64(text.Len()); got != want {
		t.Fatalf("DatasetBytes(text) = %d, want %d", got, want)
	}

	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if got, want := DatasetBytes(g, FormatBinary), int64(bin.Len()); got != want {
		t.Fatalf("DatasetBytes(binary) = %d, want %d", got, want)
	}

	if FormatText.String() == FormatBinary.String() {
		t.Fatal("format names must differ")
	}
}
