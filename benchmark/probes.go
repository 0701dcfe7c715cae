package main

// Probes: single-goroutine loops calling each layer's public
// functions directly, with inputs from the workload generator. They
// say what one call into a layer costs with nothing else on the path,
// which is the number a change to that layer moves first.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hetmem/internal/advisor"
	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/journal"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/server"
	"hetmem/internal/tenant"
	"hetmem/internal/wire"
)

// leasesProbeStanding is the lease count the lease-summary probe
// rebuilds over.
const leasesProbeStanding = 5000

// probeBatch is how many calls of a nanosecond-scale function are
// timed together, so the clock reads do not dominate.
const probeBatch = 100

// timeLoop calls fn iters times in timed batches and returns the p50
// cost of one call in nanoseconds.
func timeLoop(iters, batch int, fn func()) float64 {
	batches := max(iters/batch, 1)
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(batch)
	}
	return median(per)
}

// sink keeps probe results alive so the calls are not optimised away.
var sink any

// runProbes measures every probe metric. iters is the iteration count
// of the nanosecond-scale loops; the slower probes scale theirs down
// from it. dir is where the journal probes write.
func runProbes(dir string, seed int64, nClients, iters int) (map[string]float64, error) {
	out := make(map[string]float64)
	ctx := context.Background()
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed)) // requests drawn like the mixed workload's

	// wire: frame and parse one alloc request and its response.
	body := []byte(`{"name":"b1099511627777-9f3a11c2","size":1048576,"attr":"Bandwidth","initiator":"0-19"}`)
	respBody := []byte(`{"lease":20001,"placement":"DRAM#0","attr_used":"Bandwidth","rank":0}`)
	var frame []byte
	const frameHeader = 8 // length + CRC, ahead of the payload Decode* takes
	out["wire.codec.request_ns"] = timeLoop(iters, probeBatch, func() {
		if frame, err = wire.AppendRequest(frame[:0], wire.OpAlloc, 42, "gold", body); err == nil {
			sink, err = wire.DecodeRequest(frame[frameHeader:])
		}
	})
	if err != nil {
		return nil, fmt.Errorf("wire request probe: %w", err)
	}
	out["wire.codec.response_ns"] = timeLoop(iters, probeBatch, func() {
		if frame, err = wire.AppendResponse(frame[:0], 42, 200, respBody); err == nil {
			sink, err = wire.DecodeResponse(frame[frameHeader:])
		}
	})
	if err != nil {
		return nil, fmt.Errorf("wire response probe: %w", err)
	}
	rd := bytes.NewReader(body)
	out["server.decode_alloc_ns"] = timeLoop(iters, probeBatch, func() {
		rd.Reset(body)
		sink, err = server.DecodeAllocRequest(rd)
	})
	if err != nil {
		return nil, fmt.Errorf("decode probe: %w", err)
	}

	// server: the whole backend, no transport, no journal.
	srv, err := server.NewWithConfig(sys, serveConfig())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hot := server.AllocRequest{Name: "probe", Size: 1 << 20, Attr: "Bandwidth", Initiator: "0-19"}
	out["server.backend.alloc_free_ns"] = timeLoop(iters, probeBatch, func() {
		var resp server.AllocResponse
		if resp, err = srv.Alloc(ctx, hot); err == nil {
			_, err = srv.Free(ctx, server.FreeRequest{Lease: resp.Lease})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("backend probe: %w", err)
	}
	// The lease summary is an epoch snapshot rebuilt after a write:
	// time the read that follows one, over a standing population the
	// size of the mixed workload's.
	for i := 0; i < leasesProbeStanding; i++ {
		a := mixedAlloc(rng)
		if _, err := srv.Alloc(ctx, server.AllocRequest{Name: "standing", Size: a.size, Attr: a.attr, Initiator: a.initiator, Remote: a.remote}); err != nil {
			return nil, fmt.Errorf("leases probe: %w", err)
		}
	}
	rebuilds := make([]float64, max(iters/1000, 20))
	for i := range rebuilds {
		resp, err := srv.Alloc(ctx, hot)
		if err != nil {
			return nil, fmt.Errorf("leases probe: %w", err)
		}
		start := time.Now()
		sink, err = srv.Leases(ctx, false)
		rebuilds[i] = float64(time.Since(start)) / 1e3
		if err != nil {
			return nil, fmt.Errorf("leases probe: %w", err)
		}
		srv.Free(ctx, server.FreeRequest{Lease: resp.Lease})
	}
	out["server.leases_rebuild_us"] = median(rebuilds)

	// tenant: one charge and its refund.
	tn := tenant.NewRegistry().Define("probe", tenant.Burstable, map[string]uint64{"DRAM": 1 << 40})
	out["tenant.charge_refund_ns"] = timeLoop(iters, probeBatch, func() {
		if err = tn.Charge("DRAM", 1<<20); err == nil {
			tn.Refund("DRAM", 1<<20)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("tenant probe: %w", err)
	}

	// alloc and memattr: ranking with and without the candidate cache,
	// and one placement with its release.
	a := sys.Allocator
	bw, ok := sys.Registry.ByName("Bandwidth")
	if !ok {
		return nil, fmt.Errorf("no Bandwidth attribute on xeon")
	}
	ini, err := bitmap.ParseList("0-19")
	if err != nil {
		return nil, err
	}
	out["alloc.candidates_hit_ns"] = timeLoop(iters, probeBatch, func() {
		sink, _, _, err = a.Candidates(bw, ini, false)
	})
	out["alloc.candidates_miss_ns"] = timeLoop(iters, probeBatch, func() {
		a.InvalidateCandidates() // every cached ranking is now stale
		sink, _, _, err = a.Candidates(bw, ini, false)
	})
	if err != nil {
		return nil, fmt.Errorf("candidates probe: %w", err)
	}
	out["alloc.place_free_ns"] = timeLoop(iters, probeBatch, func() {
		var buf *memsim.Buffer
		if buf, _, err = a.AllocSpec("probe", 1<<20, bw, ini, alloc.Spec{}); err == nil {
			err = sys.Free(buf)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("placement probe: %w", err)
	}
	nodes := sys.Topology().NUMANodes()
	out["memattr.rank_targets_ns"] = timeLoop(iters, probeBatch, func() {
		sink, err = sys.Registry.RankTargets(memattr.ID(bw), ini, nodes)
	})
	if err != nil {
		return nil, fmt.Errorf("rank probe: %w", err)
	}

	// advisor: one classification cycle over 5000 leases whose counters
	// moved since the last one.
	tk := advisor.New(advisor.Config{Interval: 10 * time.Second})
	samples := make([]advisor.Sample, 5000)
	for i := range samples {
		samples[i] = advisor.Sample{Lease: uint64(i + 1), Name: "probe", Placement: "DRAM#0", Size: 1 << 20, Attr: "Bandwidth"}
	}
	cycles := make([]float64, max(iters/5000, 5))
	for c := range cycles {
		for i := range samples {
			t := &samples[i].Telemetry
			t.LLCMisses += uint64(1000 + i)
			t.RandomMisses += uint64(i % 700)
			t.Loads += uint64(4000 + i)
			t.Stores += 500
		}
		start := time.Now()
		sink = tk.Classify(samples)
		cycles[c] = float64(time.Since(start)) / 1e3
	}
	out["advisor.classify_us"] = median(cycles)

	jr, err := journalProbes(filepath.Join(dir, "probe"), rng, nClients, iters)
	if err != nil {
		return nil, err
	}
	for k, v := range jr {
		out[k] = v
	}
	return out, nil
}

// probeRecord is an alloc record shaped like the daemon's.
func probeRecord(rng *rand.Rand, lease uint64) journal.Record {
	a := mixedAlloc(rng)
	return journal.Record{
		Op: journal.OpAlloc, Lease: lease, Name: bufferName(lease, 0, 0x9f3a11c2), Attr: a.attr, Initiator: a.initiator,
		Key: "4f1c2d3e5a6b7c8d", Size: a.size, Tenant: "gold", Segments: []journal.Segment{{NodeOS: 0, Bytes: a.size}},
	}
}

// journalProbes measures the journal on the real filesystem: appends
// with and without durability, and the three ways back in (open the
// store, replay sequentially, replay in parallel) over a WAL of the
// crash image's size.
func journalProbes(dir string, rng *rand.Rand, nClients, iters int) (map[string]float64, error) {
	out := make(map[string]float64)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "journal")
	st, _, err := journal.OpenStore(base, faults.OS)
	if err != nil {
		return nil, err
	}
	records := max(iters/4, 200)
	recs := make([]journal.Record, records)
	for i := range recs {
		recs[i] = probeRecord(rng, uint64(i+1))
	}
	next := 0
	out["journal.append_nosync_ns"] = timeLoop(records, 10, func() {
		if e := st.Append(recs[next%records]); e != nil {
			err = e
		}
		next++
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("journal append probe: %w", err)
	}

	// Durable appends as the journaled workload makes them: C
	// goroutines, group commit at its defaults.
	st.EnableGroupCommit(0, 0, nil)
	perClient := max(iters/500, 10)
	lat := make([][]float64, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				start := time.Now()
				if _, err := st.AppendDurable(recs[(c*perClient+i)%records]); err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], float64(time.Since(start))/1e3)
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for c := range lat {
		if errs[c] != nil {
			st.Close()
			return nil, fmt.Errorf("durable append probe: %w", errs[c])
		}
		all = append(all, lat[c]...)
	}
	out["journal.append_durable_us"] = median(all)
	if err := st.Close(); err != nil {
		return nil, err
	}

	data, err := os.ReadFile(base)
	if err != nil {
		return nil, err
	}
	const opens = 3
	var open, seq, par [opens]float64
	for i := 0; i < opens; i++ {
		start := time.Now()
		s, _, err := journal.OpenStoreWorkers(base, faults.OS, 0)
		open[i] = float64(time.Since(start)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("open-store probe: %w", err)
		}
		s.Close()
		start = time.Now()
		r1, _, err := journal.Replay(bytes.NewReader(data))
		seq[i] = float64(time.Since(start)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("replay probe: %w", err)
		}
		start = time.Now()
		r2, _, err := journal.ReplayParallel(data, 0)
		par[i] = float64(time.Since(start)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("parallel replay probe: %w", err)
		}
		if len(r1) != len(r2) || len(r1) < records {
			return nil, fmt.Errorf("replay probe: sequential %d and parallel %d records of %d appended", len(r1), len(r2), records)
		}
	}
	out["journal.open_store_ms"] = median(open[:])
	out["journal.replay_seq_ms"] = median(seq[:])
	out["journal.replay_par_ms"] = median(par[:])
	return out, nil
}
