package loadgen

import (
	"context"
	"fmt"
	"time"

	"beqos/internal/resv"
)

// probeFlowBase keeps probe flow IDs out of the way of harness flow IDs
// (which count up from 1).
const probeFlowBase uint64 = 1 << 32

// probeKeepers is the number of reservations the probe keeps alive with
// refreshes; the rest of the link's free capacity is stalled and must
// expire.
const probeKeepers = 2

// probeStats and probeRefresh are Stats/Refresh with a per-call deadline.
func probeStats(c *resv.Client) (kmax, active int, err error) {
	ctx, cancel := rpcCtx()
	defer cancel()
	return c.Stats(ctx)
}

func probeRefresh(c *resv.Client, id uint64) (time.Duration, error) {
	ctx, cancel := rpcCtx()
	defer cancel()
	return c.Refresh(ctx, id)
}

// ProbeConfig describes one soft-state probe. The target must be a TTL
// server (resv.NewServerTTL); probing a server without expiry is an error
// because nothing the probe asserts could happen.
type ProbeConfig struct {
	// Server is an in-process target; when nil, Addr names a remote one.
	Server *resv.Server
	Addr   string
}

// ProbeResult reports one soft-state probe.
type ProbeResult struct {
	// TTL is the server's soft-state lifetime.
	TTL time.Duration
	// KMax is the server's admission threshold and Reserved the number of
	// slots the probe filled (all free capacity).
	KMax     int
	Reserved int
	// Keepers reservations ran refresh loops; Kept of them were still alive
	// at the end (want Kept == Keepers).
	Keepers int
	Kept    int
	// Stalled reservations were never refreshed; Expired of them were gone
	// at the end (want Expired == Stalled).
	Stalled int
	Expired int
	// RetryGranted reports whether a reservation attempted against the full
	// link was eventually granted — after Retries denials — once stalled
	// soft state expired.
	RetryGranted bool
	Retries      int
	Elapsed      time.Duration
}

// OK reports whether the probe observed exactly the soft-state behavior the
// protocol promises: refreshed reservations survived, stalled ones expired,
// and a retrying newcomer won a freed slot.
func (p *ProbeResult) OK() bool {
	return p.RetryGranted && p.Retries >= 1 && p.Kept == p.Keepers && p.Expired == p.Stalled
}

// ProbeSoftState exercises the protocol's RSVP-style soft state against a
// live TTL server, in real time: it fills the link's free capacity with
// reservations, keeps a few alive with Client.KeepAlive, stalls the rest,
// and races a ReserveWithRetry newcomer against the stalled flows' expiry.
// On a correct server the kept flows survive (~3 TTLs), the stalled flows
// expire, and the newcomer's retries are denied while the link is full and
// granted once expiry frees a stalled slot.
func ProbeSoftState(cfg ProbeConfig) (*ProbeResult, error) {
	start := time.Now()
	client, err := dialStream(cfg.Server, cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	kmax, active, err := probeStats(client)
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe stats: %w", err)
	}
	free := kmax - active
	if free < probeKeepers+1 {
		return nil, fmt.Errorf("loadgen: probe needs ≥ %d free slots (keepers + one stall), server has %d", probeKeepers+1, free)
	}
	res := &ProbeResult{KMax: kmax, Keepers: probeKeepers, Stalled: free - probeKeepers}

	// Fill every free slot; the first probeKeepers flows will be
	// refreshed, the rest stalled.
	for i := 0; i < free; i++ {
		ctx, cancel := rpcCtx()
		ok, _, err := client.Reserve(ctx, probeFlowBase+uint64(i), 1)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("loadgen: probe reserve: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("loadgen: probe reserve %d/%d denied with free capacity", i+1, free)
		}
		res.Reserved++
	}
	ttl, err := probeRefresh(client, probeFlowBase)
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe refresh: %w", err)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("loadgen: probe target does not expire reservations (TTL 0); use a TTL server")
	}
	res.TTL = ttl
	interval := ttl / 4
	if interval <= 0 {
		return nil, fmt.Errorf("loadgen: probe TTL %v too small to refresh against", ttl)
	}

	kaCtx, kaCancel := context.WithCancel(context.Background())
	defer kaCancel()
	kaErr := make(chan error, probeKeepers)
	for i := 0; i < probeKeepers; i++ {
		id := probeFlowBase + uint64(i)
		go func() { kaErr <- client.KeepAlive(kaCtx, id, interval) }()
	}

	// Race a newcomer against the stalled flows' expiry: the link is full,
	// so its first attempts are denied; once expiry frees a stalled slot a
	// retry is granted. Expiry takes at most TTL + one wheel tick
	// (TTL/256, at least 1ms), so half-TTL backoff with plenty of attempts
	// covers it.
	newcomer := probeFlowBase + uint64(free)
	retryCtx, retryCancel := context.WithTimeout(context.Background(), 10*ttl+5*time.Second)
	defer retryCancel()
	granted, _, retries, err := client.ReserveWithRetry(retryCtx, newcomer, 1, resv.RetryPolicy{
		MaxAttempts: 20,
		BaseDelay:   ttl / 2,
		Multiplier:  1,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe retry: %w", err)
	}
	res.RetryGranted = granted
	res.Retries = retries

	// Wait for the remaining stalled reservations to expire. Refreshing a
	// stalled flow would resurrect it, so watch the aggregate count instead:
	// the link should settle at the keepers plus the newcomer (plus whatever
	// was active before the probe).
	want := active + probeKeepers
	if granted {
		want++
	}
	deadline := time.Now().Add(10*ttl + 5*time.Second)
	for {
		_, now, err := probeStats(client)
		if err != nil {
			return nil, fmt.Errorf("loadgen: probe stats: %w", err)
		}
		if unexpired := now - want; unexpired <= 0 {
			res.Expired = res.Stalled
			break
		} else if time.Now().After(deadline) {
			res.Expired = res.Stalled - unexpired
			break
		}
		time.Sleep(ttl / 8)
	}

	// The keepers must have survived: stop their refresh loops (KeepAlive
	// returns nil on cancellation, an error if a refresh ever failed) and
	// confirm each reservation is still known to the server.
	kaCancel()
	for i := 0; i < probeKeepers; i++ {
		if err := <-kaErr; err != nil {
			return nil, fmt.Errorf("loadgen: probe keep-alive: %w", err)
		}
	}
	for i := 0; i < probeKeepers; i++ {
		if _, err := probeRefresh(client, probeFlowBase+uint64(i)); err == nil {
			res.Kept++
		}
	}

	// Cleanup: release everything the probe still holds.
	ctx, cancel := rpcCtx()
	defer cancel()
	for i := 0; i < probeKeepers; i++ {
		_ = client.Teardown(ctx, probeFlowBase+uint64(i))
	}
	if granted {
		_ = client.Teardown(ctx, newcomer)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
