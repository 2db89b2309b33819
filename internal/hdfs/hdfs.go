// Package hdfs models what the paper measures of the distributed file
// system under the distributed platforms (Section 3.1: single replica
// per block, no compression): the on-disk size of a dataset in either
// format, and the time to ingest it — the paper's Table 6 experiment
// reads directly off this model. The engines charge their own DFS
// reads and writes as profile phases; there is no simulated namespace.
package hdfs

import (
	"repro/internal/cluster"
	"repro/internal/graph"
)

// Format identifies the on-disk encoding of a dataset stored in the
// DFS: the paper's plain-text interchange format (Section 2.2.1), or
// the binary CSR snapshot format used by the ingest cache.
type Format int

const (
	// FormatText is the paper's plain-text format ("plain text with a
	// processing-friendly format but without indexes").
	FormatText Format = iota
	// FormatBinary is the versioned binary CSR snapshot format
	// (internal/graph WriteBinary/ReadBinary).
	FormatBinary
)

func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// DatasetBytes returns the on-disk size of g in the given format,
// without materialising the file. It is the size the DFS charges for
// storing and ingesting the dataset.
func DatasetBytes(g *graph.Graph, f Format) int64 {
	if f == FormatBinary {
		return graph.BinarySize(g)
	}
	return graph.TextSize(g)
}

// IngestSeconds models loading a local file of the given size into
// HDFS on the given cluster: the transfer streams from the submitting
// node over the network and onto the cluster's disks. On the paper's
// hardware this comes to roughly 1 second per 100 MB, and it is linear
// in the graph size (Table 6 key finding).
func IngestSeconds(size int64, hw cluster.Hardware) float64 {
	// The single source node's effective streaming rate is the
	// bottleneck: min(local disk read, NIC), derated for protocol
	// overhead.
	rate := hw.DiskMBps
	if hw.NetMBps < rate {
		rate = hw.NetMBps
	}
	return float64(size) / (rate * 1e6)
}
