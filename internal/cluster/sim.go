package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/netfaults"
	"hetmem/internal/server"
)

// The in-process cluster harness: N simulated daemons on loopback
// listeners with a router in front, used by `hetmemd loadtest
// -cluster` and the cluster tests. Each
// member gets its own memsim Machine, so the fleet is heterogeneous
// by construction.

// DefaultSimPlatforms is the default member mix: the paper's two
// testbeds, the synthetic Figure-3 platform, and the sub-NUMA Xeon.
var DefaultSimPlatforms = []string{"xeon", "knl-snc4-flat", "fictitious", "xeon-snc2"}

// SimOptions configures an in-process cluster.
type SimOptions struct {
	// Platforms lists one memsim platform per member (default
	// DefaultSimPlatforms). Member i is named "m<i>".
	Platforms []string
	// Member is the per-member daemon config (journal paths get the
	// member name appended when set).
	Member server.Config
	// Router is the router config; Members is filled in by the sim.
	Router Config
	// NetFaults interposes a netfaults.Proxy on every router->member
	// link: the router dials the proxy, the proxy relays to the member.
	// Sim.Proxies and Sim.Injector then drive partitions, latency, and
	// connection faults per link.
	NetFaults bool
	// Out receives progress lines (nil: discarded).
	Out io.Writer
}

// SimMember is one in-process daemon of the simulated cluster.
type SimMember struct {
	Name     string
	Platform string
	// URL is what the router dials: the member itself, or its chaos
	// proxy when the sim runs with NetFaults.
	URL string

	cfg    server.Config // kept so Restart reboots with the same config
	addr   string        // the daemon's own listen address
	proxy  *netfaults.Proxy
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	killed bool
}

// Sim is a running in-process cluster: members, router, and the
// router's HTTP listener.
type Sim struct {
	Members []*SimMember
	Router  *Router
	// Base is the router's base URL — point server.Client (or the
	// loadtest) at it.
	Base string
	// Proxies holds the per-link chaos proxies (index = member slot)
	// and Injector drives fault plans over them. Both nil unless the
	// sim was started with NetFaults.
	Proxies  []*netfaults.Proxy
	Injector *netfaults.Injector

	hs *http.Server
	ln net.Listener
}

// StartSim boots the members and the router. Callers own Close.
func StartSim(opts SimOptions) (*Sim, error) {
	platforms := opts.Platforms
	if len(platforms) == 0 {
		platforms = DefaultSimPlatforms
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	sim := &Sim{}
	fail := func(err error) (*Sim, error) {
		sim.Close()
		return nil, err
	}
	var specs []MemberSpec
	for i, plat := range platforms {
		name := fmt.Sprintf("m%d", i)
		cfg := opts.Member
		if cfg.JournalPath != "" {
			cfg.JournalPath = cfg.JournalPath + "." + name
		}
		sys, err := core.NewSystem(plat, core.Options{})
		if err != nil {
			return fail(fmt.Errorf("cluster: member %s platform %s: %w", name, plat, err))
		}
		srv, err := server.NewWithConfig(sys, cfg)
		if err != nil {
			return fail(fmt.Errorf("cluster: member %s: %w", name, err))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return fail(err)
		}
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		m := &SimMember{
			Name: name, Platform: plat, URL: "http://" + ln.Addr().String(),
			cfg: cfg, addr: ln.Addr().String(), srv: srv, hs: hs, ln: ln,
		}
		if opts.NetFaults {
			p, err := netfaults.NewProxy(m.addr)
			if err != nil {
				m.hs.Close()
				m.ln.Close()
				m.srv.Close()
				return fail(fmt.Errorf("cluster: member %s chaos proxy: %w", name, err))
			}
			m.proxy = p
			m.URL = "http://" + p.Addr()
			sim.Proxies = append(sim.Proxies, p)
		}
		sim.Members = append(sim.Members, m)
		specs = append(specs, MemberSpec{Name: name, URL: m.URL})
		fmt.Fprintf(out, "hetmemd: cluster member %s (%s) on %s\n", name, plat, m.URL)
	}
	if opts.NetFaults {
		sim.Injector = netfaults.NewInjector(sim.Proxies)
	}

	rcfg := opts.Router
	rcfg.Members = specs
	router, err := New(rcfg)
	if err != nil {
		return fail(err)
	}
	sim.Router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	sim.ln = ln
	sim.hs = &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go sim.hs.Serve(ln)
	sim.Base = "http://" + ln.Addr().String()
	fmt.Fprintf(out, "hetmemd: cluster router on %s (%d members)\n", sim.Base, len(specs))
	return sim, nil
}

// Kill hard-stops member i: the listener closes, in-flight requests
// die, and every later connection is refused — exactly what a crashed
// daemon looks like to the router.
func (s *Sim) Kill(i int) {
	m := s.Members[i]
	if m.killed {
		return
	}
	m.killed = true
	m.hs.Close()
	m.ln.Close()
	m.srv.Close()
}

// Restart reboots member i as a fresh daemon instance — new instance
// ID, empty in-memory lease table — on its previous address. With
// wipe, the member's journal files are deleted first, so the reboot
// comes back with NOTHING: the disaster case the anti-entropy
// scrubber exists for. A running member is hard-stopped first.
func (s *Sim) Restart(i int, wipe bool) error {
	m := s.Members[i]
	if !m.killed {
		m.killed = true
		m.hs.Close()
		m.ln.Close()
		m.srv.Close()
	}
	if wipe && m.cfg.JournalPath != "" {
		for _, f := range []string{m.cfg.JournalPath, m.cfg.JournalPath + ".ckpt", m.cfg.JournalPath + ".ckpt.1"} {
			os.Remove(f)
		}
	}
	sys, err := core.NewSystem(m.Platform, core.Options{})
	if err != nil {
		return fmt.Errorf("cluster: restart %s: %w", m.Name, err)
	}
	srv, err := server.NewWithConfig(sys, m.cfg)
	if err != nil {
		return fmt.Errorf("cluster: restart %s: %w", m.Name, err)
	}
	// Reclaim the old address so the router's member URL stays valid;
	// behind a proxy any port works — the proxy re-points.
	ln, err := net.Listen("tcp", m.addr)
	if err != nil && m.proxy != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		srv.Close()
		return fmt.Errorf("cluster: restart %s: %w", m.Name, err)
	}
	m.addr = ln.Addr().String()
	if m.proxy != nil {
		m.proxy.SetTarget(m.addr)
	}
	m.srv, m.ln = srv, ln
	m.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go m.hs.Serve(ln)
	m.killed = false
	return nil
}

// Close tears the cluster down: router first (stops the poller), then
// the members.
func (s *Sim) Close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	if s.Router != nil {
		s.Router.Close()
	}
	for _, m := range s.Members {
		if !m.killed {
			m.hs.Close()
			m.ln.Close()
			m.srv.Close()
		}
		if m.proxy != nil {
			m.proxy.Close()
		}
	}
}
