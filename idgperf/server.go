package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// serverSessions drives an in-process GridServer over loopback with
// two closed-loop clients. Every session's fetched grid must hash to
// the local streamed pass over the same float32-quantized data.
type serverSessions struct {
	srv     *repro.GridServer
	scfg    repro.GridSessionConfig
	local   *repro.Observation
	wire    [][]float32
	clients []*repro.GridServerClient
	// want is the local reference hash and gridBytes the size of a
	// fetched grid.
	want       string
	gridBytes  int64
	sessionVis int64
	// frames and frameBytes are what one session streams.
	frames, frameBytes int64
}

// sessionClients is the number of closed-loop clients, each with one
// connection.
const sessionClients = 2

// minSessionSamples is the session count a p95 needs for ten samples
// beyond it, with a margin.
const minSessionSamples = 220

func sessionObservation() repro.ObservationConfig {
	return repro.ObservationConfig{
		NrStations:     10,
		NrTimesteps:    48,
		NrChannels:     4,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       256,
		SubgridSize:    16,
		KernelSupport:  4,
		GridMargin:     16,
		ATermInterval:  16,
		Workers:        1,
	}
}

func setupServer(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	cfg := sessionObservation()
	o, err := buildPlan(cfg, tr)
	if err != nil {
		return nil, err
	}
	sky := newSeededSky(seed, o.ImageSize/float64(cfg.GridSize))
	if err := fill(o, sky.model, tr); err != nil {
		return nil, err
	}
	s := &serverSessions{
		local:      o,
		sessionVis: o.Plan.Stats().NrGriddedVisibilities,
		gridBytes:  int64(cfg.GridSize) * int64(cfg.GridSize) * 4 * 16,
		scfg: repro.GridSessionConfig{
			NrStations: cfg.NrStations, NrTimesteps: cfg.NrTimesteps, NrChannels: cfg.NrChannels,
			StartFrequency: cfg.StartFrequency, ChannelWidth: cfg.ChannelWidth,
			GridSize: cfg.GridSize, SubgridSize: cfg.SubgridSize, KernelSupport: cfg.KernelSupport,
			GridMargin: cfg.GridMargin, ATermInterval: cfg.ATermInterval, Workers: cfg.Workers,
		},
	}
	// The wire carries float32: quantize the local copy through the
	// same values, so the reference grids the bytes the server sees.
	s.wire = make([][]float32, len(o.Vis.Data))
	for b, data := range o.Vis.Data {
		buf := make([]float32, 8*len(data))
		for i, m := range data {
			for p := 0; p < 4; p++ {
				buf[8*i+2*p], buf[8*i+2*p+1] = float32(real(m[p])), float32(imag(m[p]))
				m[p] = complex(float64(buf[8*i+2*p]), float64(buf[8*i+2*p+1]))
			}
			data[i] = m
		}
		s.wire[b] = buf
		f, err := server.EncodeVis(b, 0, buf)
		if err != nil {
			return nil, err
		}
		var cw countingWriter
		if err := server.WriteFrame(&cw, f); err != nil {
			return nil, err
		}
		s.frames++
		s.frameBytes += cw.n
	}

	sp := tr.begin("server.start", nil, 0)
	if s.srv, err = repro.NewGridServer(repro.GridServerConfig{Addr: "127.0.0.1:0"}, &repro.ServerBackend{}); err != nil {
		return nil, err
	}
	if err := s.srv.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	sp.end(0)
	for i := 0; i < sessionClients; i++ {
		s.clients = append(s.clients, &repro.GridServerClient{
			Base:   "http://" + s.srv.Addr(),
			Tenant: fmt.Sprintf("bench-%d", i),
			HTTP:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	// The warm-up session fills the server's plan cache.
	if r := s.session(s.clients[0], nil, 0); r.err != nil || r.refused != nil {
		s.close()
		return nil, fmt.Errorf("warm-up session: %v", firstErr(r.err, r.refused))
	}
	return s, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reference grids the quantized data locally through the streamed
// scheduler the server runs.
func (s *serverSessions) reference(ctx context.Context) error {
	g, _, _, err := s.local.GridAllStreamed(ctx, nil, repro.FaultConfig{})
	if err != nil {
		return fmt.Errorf("local streamed pass: %w", err)
	}
	s.want = gridSHA256(g)
	return nil
}

func (s *serverSessions) close() {
	if s.srv != nil {
		s.srv.Drain(context.Background())
		s.srv = nil
	}
	for _, c := range s.clients {
		c.HTTP.CloseIdleConnections()
	}
}

// isRefusal tells admission-control answers from other failures.
func isRefusal(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "HTTP 429") || strings.Contains(msg, "HTTP 503")
}

// session runs create → stream → finalize → fetch SHA-256 → delete.
func (s *serverSessions) session(c *repro.GridServerClient, tr *tracer, id int64) opResult {
	var r opResult
	start := time.Now()
	root := tr.begin("session", nil, id)
	call := func(name string, work int64, fn func() error) error {
		sp := tr.begin(name, root, id)
		err := fn()
		sp.end(work)
		return err
	}
	var info server.SessionInfo
	err := call("server.create", 0, func() (err error) {
		info, err = c.CreateSession(s.scfg)
		return err
	})
	if err != nil {
		if isRefusal(err) {
			r.refused = err
		} else {
			r.err = err
		}
		return r
	}
	var res repro.GridSessionResult
	var sha string
	var n int64
	err = call("server.stream", s.frames, func() error {
		return c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
			for b, buf := range s.wire {
				if err := w.WriteVis(b, 0, buf); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err == nil {
		err = call("server.finalize", s.sessionVis, func() (err error) {
			res, err = c.Finalize(info.SessionID)
			return err
		})
	}
	if err == nil {
		err = call("server.fetch", 0, func() (err error) {
			sha, n, err = c.FetchGridSHA256(info.SessionID)
			return err
		})
	}
	derr := call("server.delete", 0, func() error { return c.Delete(info.SessionID) })
	if err = firstErr(err, derr); err != nil {
		r.err = err
		return r
	}
	r.wall = time.Since(start)
	root.end(s.sessionVis)
	r.gridVis, r.gridWall = s.sessionVis, r.wall
	if s.want != "" && (res.SHA256 != s.want || sha != s.want || n != s.gridBytes) {
		r.badOut = fmt.Errorf("session grid %s, fetched %s (%d bytes), local streamed pass %s (%d bytes)",
			res.SHA256, sha, n, s.want, s.gridBytes)
	}
	return r
}

func (s *serverSessions) run(ctx context.Context, d time.Duration, tr *tracer, opBase int64) (*windowResult, error) {
	hits0, misses0 := repro.ServerPlanCacheStats()
	var mu sync.Mutex
	var ids = opBase
	res := newWindowResult()
	var wg sync.WaitGroup
	start := time.Now()
	// A slow host may complete too few sessions in d for a p95 with
	// ten samples beyond it; the window then runs on, up to 4d.
	more := func() bool {
		mu.Lock()
		n := len(res.opWalls)
		mu.Unlock()
		el := time.Since(start)
		return el < d || (n < minSessionSamples && el < 4*d)
	}
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *repro.GridServerClient) {
			defer wg.Done()
			for more() {
				mu.Lock()
				ids++
				id := ids
				mu.Unlock()
				r := s.session(c, tr, id)
				mu.Lock()
				res.record(r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	// Sessions overlap, so the rate's wall time is the window's, not
	// the sum of session times.
	res.grid.wall = res.wall
	hits, misses := repro.ServerPlanCacheStats()
	if total := (hits - hits0) + (misses - misses0); total > 0 {
		res.extra["plan_cache_hit_ratio"] = metric{float64(hits-hits0) / float64(total), "fraction"}
	}
	res.extra["session_samples"] = metric{float64(len(res.opWalls)), "count"}
	p50, err := percentile(res.opWalls, 50)
	if err != nil {
		return nil, fmt.Errorf("session p50: %w", err)
	}
	p95, err := percentile(res.opWalls, 95)
	if err != nil {
		return nil, fmt.Errorf("session p95: %w", err)
	}
	res.extra["session_p50_ms"] = metric{ms(p50), "ms"}
	res.extra["session_p95_ms"] = metric{ms(p95), "ms"}
	return res, nil
}

func (s *serverSessions) layers(ix *spanIndex, untraced, traced *windowResult) map[string]float64 {
	m := kernelLayers(ix, s.local.Plan, traced)
	for _, name := range []string{"create", "stream", "finalize", "fetch"} {
		if busy, _, n := ix.busy("server." + name); n > 0 {
			m["server."+name+"_ms"] = ms(busy) / float64(n)
		}
	}
	m["server.frames_per_session"] = float64(s.frames)
	m["server.bytes_per_session"] = float64(s.frameBytes)
	m["server.plan_cache_hit_ratio"] = traced.extra["plan_cache_hit_ratio"].Value
	m["server.refused"] = float64(untraced.counts.refused + traced.counts.refused)
	// The session's gridding pass runs inside finalize.
	m["pass.wall_ms"] = m["server.finalize_ms"]
	for _, k := range []string{"session_p50_ms", "session_p95_ms", "session_samples"} {
		m["workload."+k] = untraced.extra[k].Value
	}
	return m
}
