package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/sitehost"
)

// durability selects the hor-tcp crash-safety layers; the traced run
// switches them off one at a time to attribute their cost.
type durability int

const (
	durNone       durability = iota // TCP sites only
	durCheckpoint                   // + WithCheckpointDir
	durFull                         // + WithJournalDir (the workload as defined)
)

// deployment is what one session of a workload runs against: its Open
// options plus the site servers and directories behind them.
type deployment struct {
	opts    []session.Option
	servers []*sitehost.Server
	dirs    []string
}

// deploy prepares the i-th deployment of a workload under root. dial,
// when non-nil, replaces the TCP dial of every site connection.
func (sp spec) deploy(root string, i int, schema *relation.Schema, dur durability,
	dial func(string, time.Duration) (net.Conn, error)) (*deployment, error) {
	d := &deployment{}
	dir := func(name string) string {
		p := filepath.Join(root, fmt.Sprintf("%s-%d", name, i))
		d.dirs = append(d.dirs, p)
		return p
	}
	switch sp.Kind {
	case kindCentral:
	case kindDisk:
		d.opts = append(d.opts, session.WithStorageDir(dir("store")), session.WithPageCacheBudget(sp.CacheBudget))
	case kindHorTCP:
		addrs := make([]string, sp.Sites)
		for s := range addrs {
			srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
			if err != nil {
				d.close()
				return nil, err
			}
			d.servers = append(d.servers, srv)
			addrs[s] = srv.Addr()
		}
		d.opts = append(d.opts,
			session.WithHorizontal(partition.HashHorizontal("c_name", sp.Sites)),
			session.WithTCPSites(addrs...))
		if dur >= durCheckpoint {
			d.opts = append(d.opts, session.WithCheckpointDir(dir("ckpt")))
		}
		if dur >= durFull {
			d.opts = append(d.opts, session.WithJournalDir(dir("journal")))
		}
		if dial != nil {
			d.opts = append(d.opts, session.WithTCPDialer(dial))
		}
	case kindVertical:
		d.opts = append(d.opts,
			session.WithVertical(partition.RoundRobinVertical(schema, sp.Sites)),
			session.WithOptimizer(),
			session.WithMaxFanout(sp.MaxFanout))
	default:
		return nil, fmt.Errorf("unknown workload kind %q", sp.Kind)
	}
	return d, nil
}

// close stops the site servers and removes the deployment's files.
func (d *deployment) close() {
	for _, srv := range d.servers {
		srv.Close()
	}
	for _, p := range d.dirs {
		os.RemoveAll(p)
	}
}

// open opens a session over the deployment and times it.
func (d *deployment) open(in *inputs) (*session.Session, time.Duration, error) {
	start := time.Now()
	sess, err := session.Open(in.rel, in.rules, d.opts...)
	return sess, time.Since(start), err
}
