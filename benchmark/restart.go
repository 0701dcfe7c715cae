package main

// The restart phase of the journaled workload: how long the service
// takes from nothing until it holds its leases again and answers an
// allocation. It boots from a crash image — the files a real daemon
// left behind, copied while it was quiescent and never closed cleanly —
// so the time is dominated by journal replay, and the restored state is
// checked against what the image's builder was told had been
// acknowledged. A workload without a journal has nothing to restart
// from: its restart is its set-up, and setup_s already times that.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/server"
)

// imageLease is what the image builder knows about an acknowledged,
// not yet freed lease.
type imageLease struct {
	name   string
	size   uint64
	tenant string
}

// crashImage is a copy of a journaled daemon's files at a quiescent
// moment, with the state a restart must restore.
type crashImage struct {
	dir   string
	files []string
	live  map[uint64]imageLease
	books server.LeasesResponse
}

// imageTenants own the image's leases; "default" is what the daemon
// books an untenanted request under.
var imageTenants = []string{"default", "gold", "silver"}

// buildImage runs a journaled daemon through ops seeded alloc/free
// requests (two allocations for every free, so a third of the ops stay
// live), checkpoints it once two thirds of the way, and copies its
// files into dir/image before closing it.
func buildImage(dir string, seed int64, ops int) (*crashImage, error) {
	work := filepath.Join(dir, "image-build")
	img := &crashImage{dir: filepath.Join(dir, "image"), live: make(map[uint64]imageLease)}
	for _, d := range []string{work, img.dir} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	sys, err := core.NewSystem("xeon", core.Options{})
	if err != nil {
		return nil, err
	}
	cfg := serveConfig()
	cfg.JournalPath = filepath.Join(work, "journal")
	srv, err := server.NewWithConfig(sys, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(seed))
	var ids []uint64
	for i := 0; i < ops; i++ {
		if i == ops*2/3 {
			if err := srv.CheckpointNow(); err != nil {
				return nil, fmt.Errorf("crash image checkpoint: %w", err)
			}
		}
		if len(ids) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(ids))
			if _, err := srv.Free(context.Background(), server.FreeRequest{Lease: ids[k]}); err != nil {
				return nil, fmt.Errorf("crash image free: %w", err)
			}
			delete(img.live, ids[k])
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			continue
		}
		a := mixedAlloc(rng)
		l := imageLease{name: fmt.Sprintf("i%d", i), size: a.size, tenant: imageTenants[rng.Intn(len(imageTenants))]}
		ctx := context.Background()
		if l.tenant != imageTenants[0] {
			ctx = server.ContextWithTenant(ctx, l.tenant)
		}
		resp, err := srv.Alloc(ctx, server.AllocRequest{Name: l.name, Size: l.size, Attr: a.attr, Initiator: a.initiator, Remote: a.remote})
		if err != nil {
			return nil, fmt.Errorf("crash image alloc: %w", err)
		}
		img.live[resp.Lease] = l
		ids = append(ids, resp.Lease)
	}
	if img.books, err = srv.Leases(context.Background(), false); err != nil {
		return nil, err
	}
	// Nothing is in flight: what is on disk now is what a crash here
	// would leave.
	entries, err := os.ReadDir(work)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(work, e.Name()), filepath.Join(img.dir, e.Name())); err != nil {
			return nil, err
		}
		img.files = append(img.files, e.Name())
	}
	return img, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// restartPhase builds the crash image and cold-starts wl's service
// from it, with nothing wrapped. restart_s is the median of the starts.
func restartPhase(ctx context.Context, wl *workload, o options, dir string, wr *workloadResult) error {
	img, err := buildImage(dir, o.seed, o.sc.imageOps)
	if err != nil {
		return err
	}
	var restarts []float64
	for i := 0; i < o.sc.coldStarts; i++ {
		took, err := coldStart(ctx, wl, o, filepath.Join(dir, "cold"), img)
		if err != nil {
			return err
		}
		restarts = append(restarts, took.Seconds())
	}
	m := summarizeTimings(specNamed("restart_s"), restarts, o.sc.reps)
	if wr.EndToEnd != nil {
		wr.EndToEnd["restart_s"] = m
	}
	if wr.PerLayer != nil {
		wr.PerLayer["restart_s"] = m.Median
	}
	return nil
}

// coldStart brings wl's service back in dir from img's files and times
// it up to the first successful allocation after that. What the image
// restored is checked.
func coldStart(ctx context.Context, wl *workload, o options, dir string, img *crashImage) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, f := range img.files {
		if err := copyFile(filepath.Join(img.dir, f), filepath.Join(dir, f)); err != nil {
			return 0, err
		}
	}
	start := time.Now() // laying the files out is not part of a restart
	st, err := boot(wl, dir, nil)
	if err != nil {
		return 0, err
	}
	r := newRunner(st, o.seed, 1, nil)
	defer r.tearDown()
	cl := r.cls[0]
	resp, err := cl.Alloc(ctx, server.AllocRequest{Name: "first", Size: 1 << 20, Attr: "Bandwidth", Initiator: wl.initiator})
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("first allocation after cold start: %w", err)
	}
	if err := cl.Free(ctx, resp.Lease); err != nil {
		return 0, err
	}
	if err := img.check(ctx, cl); err != nil {
		return 0, fmt.Errorf("state restored from the crash image: %w", err)
	}
	return took, nil
}

// check compares the restarted daemon's lease table and books with
// the acknowledged-and-not-freed set the builder recorded.
func (img *crashImage) check(ctx context.Context, cl *server.Client) error {
	got, err := cl.Leases(ctx, true)
	if err != nil {
		return err
	}
	if len(got.Leases) != len(img.live) {
		return fmt.Errorf("%d leases restored, %d were live", len(got.Leases), len(img.live))
	}
	for _, l := range got.Leases {
		want, ok := img.live[l.Lease]
		if !ok {
			return fmt.Errorf("lease %d (%s) restored but was never acknowledged or was freed", l.Lease, l.Name)
		}
		if l.Name != want.name || l.Size != want.size || l.Tenant != want.tenant {
			return fmt.Errorf("lease %d restored as %s/%d/%q, was %s/%d/%q", l.Lease, l.Name, l.Size, l.Tenant, want.name, want.size, want.tenant)
		}
	}
	got.Leases = nil
	return sameLeases("restored books", got, img.books)
}
