package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Closed-loop load generator: N simulated users issue point queries
// against the in-process server back-to-back ("closed" arrival) or
// with exponentially distributed think time ("poisson"), for a fixed
// duration. Each query is traced as an obs span; the report carries
// sustained QPS and the latency percentiles the serving gate checks.

// LoadConfig parameterises one load run.
type LoadConfig struct {
	// Dataset to query (default: the server's first dataset).
	Dataset string
	// Users is the number of concurrent closed-loop users (default 64).
	Users int
	// Duration is how long to drive load (default 5s).
	Duration time.Duration
	// Arrival is "closed" (back-to-back, default) or "poisson"
	// (exponential think time between a user's queries).
	Arrival string
	// MeanThink is the mean think time for poisson arrivals
	// (default 1ms).
	MeanThink time.Duration
	// Seed makes the query stream deterministic (default 1).
	Seed int64
	// Mix selects the workload: "bfs" (point reachability, default)
	// or "mixed" (bfs + khop + component + sssp + stats).
	Mix string
}

func (c *LoadConfig) fill(srv *Server) error {
	if c.Dataset == "" {
		names := srv.Datasets()
		if len(names) == 0 {
			return errors.New("serve: no datasets loaded")
		}
		c.Dataset = names[0]
	}
	if c.Users <= 0 {
		c.Users = 64
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	switch c.Arrival {
	case "":
		c.Arrival = "closed"
	case "closed", "poisson":
	default:
		return fmt.Errorf("serve: unknown arrival process %q (want closed or poisson)", c.Arrival)
	}
	if c.MeanThink <= 0 {
		c.MeanThink = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	switch c.Mix {
	case "":
		c.Mix = "bfs"
	case "bfs", "mixed":
	default:
		return fmt.Errorf("serve: unknown workload mix %q (want bfs or mixed)", c.Mix)
	}
	return nil
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Dataset  string        `json:"dataset"`
	Users    int           `json:"users"`
	Arrival  string        `json:"arrival"`
	Mix      string        `json:"mix"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Queries  int64         `json:"queries"`
	Errors   int64         `json:"errors"`
	Overload int64         `json:"overloads"`
	Deadline int64         `json:"deadlines"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
	P999     time.Duration `json:"p999_ns"`
	Max      time.Duration `json:"max_ns"`
}

func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"loadtest %s: %d users, %s arrival, %s mix, %.2fs\n"+
			"  queries   %d (%.0f QPS sustained)\n"+
			"  errors    %d (%d overload, %d deadline)\n"+
			"  latency   p50 %s  p99 %s  p999 %s  max %s",
		r.Dataset, r.Users, r.Arrival, r.Mix, r.Elapsed.Seconds(),
		r.Queries, r.QPS,
		r.Errors, r.Overload, r.Deadline,
		r.P50, r.P99, r.P999, r.Max)
}

// RunLoad drives the server with the configured user fleet and
// reports sustained QPS and latency percentiles over successful
// queries. Overload rejections are counted, then backed off briefly so
// a saturated server sheds load instead of spinning the rejection
// path.
func RunLoad(srv *Server, cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.fill(srv); err != nil {
		return nil, err
	}
	g, err := srv.Graph(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("serve: dataset %q is empty", cfg.Dataset)
	}
	tracer := srv.cfg.Obs.T()

	type userStats struct {
		lat                         []time.Duration
		queries, errs, over, missed int64
	}
	stats := make([]userStats, cfg.Users)
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(cfg.Duration)
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			st := &stats[u]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(u)*7919))
			ctx := context.Background()
			for time.Now().Before(stopAt) {
				src := graph.VertexID(rng.Intn(n))
				target := graph.VertexID(rng.Intn(n))
				span := tracer.Begin("loadtest.query", obs.KindPhase, int64(u), obs.SpanRef{})
				t0 := time.Now()
				err := runQuery(ctx, srv, &cfg, rng, src, target)
				lat := time.Since(t0)
				tracer.End(span)
				st.queries++
				switch {
				case err == nil:
					st.lat = append(st.lat, lat)
				case errors.Is(err, ErrOverloaded):
					st.errs++
					st.over++
					time.Sleep(50 * time.Microsecond)
				case errors.Is(err, algo.ErrDeadlineExceeded):
					st.errs++
					st.missed++
				default:
					st.errs++
				}
				if cfg.Arrival == "poisson" {
					think := time.Duration(rng.ExpFloat64() * float64(cfg.MeanThink))
					time.Sleep(think)
				}
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Dataset: cfg.Dataset, Users: cfg.Users, Arrival: cfg.Arrival,
		Mix: cfg.Mix, Elapsed: elapsed,
	}
	var all []time.Duration
	for i := range stats {
		rep.Queries += stats[i].queries
		rep.Errors += stats[i].errs
		rep.Overload += stats[i].over
		rep.Deadline += stats[i].missed
		all = append(all, stats[i].lat...)
	}
	ok := rep.Queries - rep.Errors
	rep.QPS = float64(ok) / elapsed.Seconds()
	if len(all) > 0 {
		slices.Sort(all)
		rep.P50 = metrics.NearestRank(all, 0.50)
		rep.P99 = metrics.NearestRank(all, 0.99)
		rep.P999 = metrics.NearestRank(all, 0.999)
		rep.Max = all[len(all)-1]
	}
	return rep, nil
}

// runQuery issues one query per the workload mix.
func runQuery(ctx context.Context, srv *Server, cfg *LoadConfig, rng *rand.Rand, src, target graph.VertexID) error {
	if cfg.Mix == "bfs" {
		_, err := srv.BFS(ctx, cfg.Dataset, src, target)
		return err
	}
	switch p := rng.Intn(100); {
	case p < 88:
		_, err := srv.BFS(ctx, cfg.Dataset, src, target)
		return err
	case p < 93:
		_, err := srv.KHop(ctx, cfg.Dataset, src, int32(1+rng.Intn(3)))
		return err
	case p < 97:
		_, err := srv.Component(ctx, cfg.Dataset, src)
		return err
	case p < 99:
		_, err := srv.SSSP(ctx, cfg.Dataset, src, target)
		return err
	default:
		_, err := srv.Stats(cfg.Dataset)
		return err
	}
}
