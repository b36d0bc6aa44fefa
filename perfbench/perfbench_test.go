package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
)

func TestInputsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b := catalogFor(w, 7), catalogFor(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two catalogs for seed 7 differ", w.name)
		}
		for c := 0; c < callers; c++ {
			ra, rb := newRequests(w, 7, c, len(a)), newRequests(w, 7, c, len(a))
			for i := 0; i < 1000; i++ {
				ma, da := ra.next()
				mb, db := rb.next()
				if ma.ID != mb.ID || da != db {
					t.Fatalf("%s caller %d: request %d differs for one seed", w.name, c, i)
				}
			}
		}
	}
	cold, err := workloadByName("cold-catalog")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(catalogFor(cold, 7), catalogFor(cold, 8)) {
		t.Error("cold-catalog: seeds 7 and 8 give the same catalog")
	}
}

func TestCallersOwnTheirMachines(t *testing.T) {
	for _, w := range workloads {
		seen := make(map[network.NodeID]int)
		for c := 0; c < callers; c++ {
			for _, m := range callerMachines(w, c) {
				if prev, ok := seen[m.Node]; ok {
					t.Errorf("%s: %s belongs to callers %d and %d", w.name, m.Node, prev, c)
				}
				seen[m.Node] = c
			}
		}
	}
}

// newsExpectation is the §5 answer for one of the hot-reject articles.
func newsExpectation(t *testing.T, withAll bool) (media.Document, expectation) {
	t.Helper()
	w, err := workloadByName("hot-reject")
	if err != nil {
		t.Fatal(err)
	}
	doc := newsArticles(1, serverIDs(w.servers))[0]
	e, err := expect(doc, referenceMachine(w), sectionFiveProfile(), cost.DefaultPricing(), withAll)
	if err != nil {
		t.Fatal(err)
	}
	return doc, e
}

// offerResult fabricates a wire result for an offer of the article.
func offerResult(status core.NegotiationStatus, v qos.VideoQoS, a qos.AudioQoS, lang qos.Language, price cost.Money) protocol.NegotiationResult {
	return protocol.NegotiationResult{
		Status:  status,
		Session: 1,
		Cost:    price,
		Offer: &profile.MMProfile{
			Video: &v,
			Audio: &a,
			Text:  &qos.TextQoS{Language: lang},
			Cost:  profile.CostProfile{MaxCost: price},
		},
	}
}

func TestCheckIdle(t *testing.T) {
	_, e := newsExpectation(t, false)
	best := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	cd := qos.AudioQoS{Grade: qos.CDQuality, Language: qos.English}
	var price cost.Money
	for a := range e.first {
		price = a.cost
	}
	// Two minutes of 2.59 Mbit/s video and 1.41 Mbit/s audio under the
	// default tariff, plus the 0.5$ copyright fee.
	if want := cost.Money(500 + 120*(15+5) + 120*(8+1)); price != want {
		t.Fatalf("first choice costs %v, want %v", price, want)
	}
	if e.status != core.Succeeded {
		t.Fatalf("status %v, want SUCCEEDED", e.status)
	}
	for _, lang := range []qos.Language{qos.English, qos.French} {
		if err := checkIdle(e, offerResult(core.Succeeded, best, cd, lang, price)); err != nil {
			t.Errorf("the §5 answer with %s captions was refused: %v", lang, err)
		}
	}
	wrong := map[string]protocol.NegotiationResult{
		"non-optimal offer": offerResult(core.Succeeded, qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cd, qos.English, price),
		"wrong price":       offerResult(core.Succeeded, best, cd, qos.English, price+1),
		"over budget":       offerResult(core.Succeeded, best, cd, qos.English, cost.Dollars(13)),
		"wrong status":      offerResult(core.FailedWithOffer, best, cd, qos.English, price),
	}
	for name, res := range wrong {
		if checkIdle(e, res) == nil {
			t.Errorf("%s passed the idle check", name)
		}
	}
	mismatch := offerResult(core.Succeeded, best, cd, qos.English, price)
	mismatch.Cost++
	if checkIdle(e, mismatch) == nil {
		t.Error("an offer whose price differs from the session cost passed")
	}
}

func TestExpectPrefersAcceptableOffers(t *testing.T) {
	doc, _ := newsExpectation(t, false)
	w, _ := workloadByName("hot-reject")
	u := sectionFiveProfile()
	// A budget below every offer leaves the acceptable set empty: the
	// first choice is then the best offer overall, at FAILEDWITHOFFER.
	u.Desired.Cost.MaxCost, u.Worst.Cost.MaxCost = cost.Dollars(1), cost.Dollars(1)
	e, err := expect(doc, referenceMachine(w), u, cost.DefaultPricing(), false)
	if err != nil {
		t.Fatal(err)
	}
	if e.status != core.FailedWithOffer {
		t.Errorf("status %v with an impossible budget, want FAILEDWITHOFFER", e.status)
	}
}

func TestCheckHeld(t *testing.T) {
	_, e := newsExpectation(t, true)
	cd := qos.AudioQoS{Grade: qos.CDQuality, Language: qos.English}
	grey := qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}
	// Two minutes of 1.73 Mbit/s video and CD audio, plus the copyright fee.
	price := cost.Money(500 + 120*(15+5) + 120*(8+1))
	if err := checkHeld(e, offerResult(core.Succeeded, grey, cd, qos.French, price)); err != nil {
		t.Errorf("a lower-ranked offer of the document was refused: %v", err)
	}
	wrong := map[string]protocol.NegotiationResult{
		"not an offer of the document": offerResult(core.Succeeded, qos.VideoQoS{Color: qos.SuperColor, FrameRate: 30, Resolution: 720}, cd, qos.English, price),
		"wrong price":                  offerResult(core.Succeeded, grey, cd, qos.French, price+10),
		"wrong status":                 offerResult(core.FailedWithOffer, grey, cd, qos.French, price),
		"nothing reserved":             {Status: core.FailedTryLater},
	}
	for name, res := range wrong {
		if checkHeld(e, res) == nil {
			t.Errorf("%s passed the hold check", name)
		}
	}
}

// substrate builds a one-link network and one CMFS server sharing a ledger.
func substrate(t *testing.T) (*ledger.Ledger, *network.Network, *cmfs.Server) {
	t.Helper()
	led := ledger.New()
	n := network.New()
	if err := n.AddDuplex("l", "a", "b", 10*qos.MBitPerSecond, time.Millisecond, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	n.SetLedger(led)
	s, err := cmfs.NewServer("server-1", cmfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLedger(led)
	return led, n, s
}

func TestCheckWindDown(t *testing.T) {
	led, n, s := substrate(t)
	if err := checkWindDown(led, n, []*cmfs.Server{s}); err != nil {
		t.Fatalf("an idle substrate failed the wind-down check: %v", err)
	}
	q := qos.NetworkQoS{AvgBitRate: qos.MBitPerSecond, MaxBitRate: qos.MBitPerSecond}
	r, err := s.Reserve(q)
	if err != nil {
		t.Fatal(err)
	}
	if checkWindDown(led, n, []*cmfs.Server{s}) == nil {
		t.Error("a leaked stream reservation passed the wind-down check")
	}
	if err := s.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	paths, err := n.FindPaths("a", "b", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := n.Reserve(paths[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if checkWindDown(led, n, []*cmfs.Server{s}) == nil {
		t.Error("a leaked network reservation passed the wind-down check")
	}
	if err := n.Release(nr.ID); err != nil {
		t.Fatal(err)
	}
	if err := checkWindDown(led, n, []*cmfs.Server{s}); err != nil {
		t.Errorf("the substrate failed the check after every release: %v", err)
	}
}

func TestCheckNoOvercommit(t *testing.T) {
	_, n, s := substrate(t)
	q := qos.NetworkQoS{AvgBitRate: 8 * qos.MBitPerSecond, MaxBitRate: 8 * qos.MBitPerSecond}
	paths, err := n.FindPaths("a", "b", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Reserve(paths[0], q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(q); err != nil {
		t.Fatal(err)
	}
	if err := checkNoOvercommit(n, []*cmfs.Server{s}); err != nil {
		t.Fatalf("a substrate within capacity failed: %v", err)
	}
	if err := n.SetLinkDegradation(paths[0][0], 0.5); err != nil {
		t.Fatal(err)
	}
	if checkNoOvercommit(n, []*cmfs.Server{s}) == nil {
		t.Error("an overcommitted link passed")
	}
	if err := n.SetLinkDegradation(paths[0][0], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDegradation(0.95); err != nil {
		t.Fatal(err)
	}
	if checkNoOvercommit(n, []*cmfs.Server{s}) == nil {
		t.Error("an overcommitted server passed")
	}
	if checkStreams([]*cmfs.Server{s}, 2) == nil {
		t.Error("a stream count below the held sessions' passed")
	}
}

// TestHoldWindowLeavesRoom is the argument that hold-mesh never fails a
// negotiation, whatever the seed and the interleaving of the callers: with
// every held session on its most expensive offer, each access link and at
// least one server still fit an offer served by that server alone.
func TestHoldWindowLeavesRoom(t *testing.T) {
	w, err := workloadByName("hold-mesh")
	if err != nil {
		t.Fatal(err)
	}
	docs := catalogFor(w, 1)
	var maxSession qos.BitRate
	cheapest := make(map[media.ServerID]qos.BitRate)
	for _, d := range docs {
		var sum qos.BitRate
		perServer := make(map[media.ServerID][]qos.BitRate)
		for _, m := range d.Monomedia {
			var hi qos.BitRate
			best := make(map[media.ServerID]qos.BitRate)
			for _, v := range m.Variants {
				r := v.NetworkQoS().AvgBitRate
				hi = max(hi, r)
				if b, ok := best[v.Server]; !ok || r < b {
					best[v.Server] = r
				}
			}
			sum += hi
			for s, r := range best {
				perServer[s] = append(perServer[s], r)
			}
		}
		maxSession = max(maxSession, sum)
		for s, rates := range perServer {
			if len(rates) != len(d.Monomedia) {
				continue // the server lacks some component
			}
			var total qos.BitRate
			for _, r := range rates {
				total += r
			}
			if c, ok := cheapest[s]; !ok || total > c {
				cheapest[s] = total
			}
		}
	}
	if len(cheapest) != w.servers {
		t.Fatalf("only %d of %d servers can serve a whole article alone", len(cheapest), w.servers)
	}
	var single qos.BitRate // the dearest single-server fallback
	for _, r := range cheapest {
		single = max(single, r)
	}
	// A caller negotiates holding hold-1 sessions over its machines in
	// turn; the other caller may hold hold sessions plus one in flight.
	perLink := (w.hold - 1) / w.machinesPerCaller
	const access = 10 * qos.MBitPerSecond
	if used := qos.BitRate(perLink) * maxSession; used+single > access {
		t.Errorf("an access link may carry %v and the fallback needs %v more, over %v", used, single, access)
	}
	sessions := 2 * w.hold
	streams := sessions * len(docs[0].Monomedia)
	cfg := cmfs.DefaultConfig()
	if streams > cfg.MaxStreams {
		t.Errorf("%d streams exceed a server's cap of %d", streams, cfg.MaxStreams)
	}
	budget := func(n int) float64 {
		return float64(cfg.DiskRate) * (1 - float64(n)*cfg.SeekTime.Seconds()/cfg.RoundLength.Seconds())
	}
	// Split the streams between the servers however badly: the budgets
	// shrink by the seek time of every stream, so the total budget is
	// smallest with every stream counted.
	spare := float64(w.servers)*float64(cfg.DiskRate) - (budget(0) - budget(streams)) - float64(sessions)*float64(maxSession)
	if spare/float64(w.servers) < float64(single) {
		t.Errorf("the servers' spare disk rate %.0f bit/s may leave none with %v", spare, single)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
	q1, q2, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || q2 != 3 || q3 != 6 {
		t.Errorf("quartiles of two = %v %v %v, want 0 3 6", q1, q2, q3)
	}
}

// spec is the benchmark's declared form, read from the repository root.
type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload so a run takes a second or two.
func tiny(w workload) workload {
	w.warmup, w.heapSessions = 20, 100
	if w.name == "cold-catalog" {
		w.catalog = func(rng *rand.Rand, servers []media.ServerID) []media.Document {
			return coldCatalog(rng, servers)[:200]
		}
	}
	return w
}

func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload over loopback")
	}
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, declared := range sp.Workloads {
		w, err := workloadByName(declared.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		for trace, want := range [][]struct{ Name, Unit string }{sp.EndToEnd, sp.PerLayer} {
			rep := report{Details: make(map[string]any)}
			run := endToEnd
			if trace == 1 {
				run = traced
			}
			res, err := run(w, 3, 400*time.Millisecond, &rep)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d operations failed: %s", w.name, trace, res.Failed, res.Attempted, rep.FirstError)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, declared unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-reject", "--trace", "2"},
		{"--workload", "hot-reject", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, output %q", strings.Join(args, " "), code, out.String())
		}
	}
}
