package main

import (
	"fmt"
	"math/rand"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// callers is the number of closed-loop callers: one per core of the 2-core
// reference host, each on its own protocol.Client connection.
const callers = 2

// workload is one named traffic mix: a catalog, a topology and the request
// stream each caller drives over the wire. A session is one negotiate RPC
// plus the reject RPC that ends a reservation.
type workload struct {
	name string
	// servers is the number of CMFS servers (server-1..N).
	servers int
	// machinesPerCaller client workstations belong to each caller alone,
	// so the machine in a request names the caller that sent it: the wire
	// carries no request id, and the traced run groups spans by caller.
	machinesPerCaller int
	// mesh adds redundant switch links to the star, so every client–server
	// pair has several loop-free paths.
	mesh bool
	// hold is how many reserved sessions each caller keeps, rejecting the
	// oldest before each new negotiation whatever the outcome; 0 rejects
	// every session right after its negotiation.
	hold int
	// warmup is how many sessions each caller runs in setup once the offer
	// cache is full.
	warmup int
	// heapSessions is the fixed number of sessions, over both callers,
	// after setup at which the live heap is read.
	heapSessions int
	// catalog builds the documents from the workload seed.
	catalog func(rng *rand.Rand, servers []media.ServerID) []media.Document
}

// idle reports whether the substrate stays idle: every session is rejected
// before the caller's next one, so step 5 always commits the first offer of
// the ranked list and each answer must be the §5 rule's first choice.
func (w workload) idle() bool { return w.hold == 0 }

var workloads = []workload{
	{
		name: "hot-reject",
		// Few documents, each session rejected at once: the offer cache
		// always hits and step 5 commits first try, so the wire, the codecs
		// and cache-hit classification do most of the work.
		servers:           2,
		machinesPerCaller: 2,
		warmup:            1000,
		heapSessions:      2000,
		catalog:           func(_ *rand.Rand, servers []media.ServerID) []media.Document { return newsArticles(5, servers) },
	},
	{
		name: "cold-catalog",
		// Uniform requests over a catalog four times the offer cache: most
		// lookups miss, so filtering, QoS mapping, pricing and cache churn
		// dominate.
		servers:           3,
		machinesPerCaller: 2,
		warmup:            200,
		heapSessions:      1000,
		catalog:           coldCatalog,
	},
	{
		name: "hold-mesh",
		// Callers hold their recent sessions on a star with redundant switch
		// links: step 5 walks down the ranked list, and path search under the
		// network lock dominates.
		servers:           2,
		machinesPerCaller: 3,
		mesh:              true,
		hold:              7,
		warmup:            200,
		heapSessions:      800,
		catalog:           func(_ *rand.Rand, servers []media.ServerID) []media.Document { return newsArticles(5, servers) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sectionFiveProfile is the example request of the paper's Section 5 with
// the default importance factors: color TV video at 25 frames/s and CD
// audio desired, black-and-white video at 10 frames/s and telephone audio
// the worst acceptable, at most 12$.
func sectionFiveProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "section-5",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: qos.TVRate, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// newsArticles builds the n two-minute articles qosnegd synthesizes when it
// is given no catalog.
func newsArticles(n int, servers []media.ServerID) []media.Document {
	docs := make([]media.Document, n)
	for i := range docs {
		docs[i] = media.BuildNewsArticle(media.NewsArticleSpec{
			ID:       media.DocumentID(fmt.Sprintf("news-%d", i+1)),
			Title:    fmt.Sprintf("Synthetic article %d", i+1),
			Duration: 2 * time.Minute,
			Servers:  servers,
			VideoQualities: []qos.VideoQoS{
				{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
				{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
				{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
				{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
			},
			AudioQualities: []qos.AudioQoS{
				{Grade: qos.CDQuality, Language: qos.English},
				{Grade: qos.TelephoneQuality, Language: qos.English},
			},
			Languages:    []qos.Language{qos.English, qos.French},
			CopyrightFee: 500,
		})
	}
	return docs
}

// coldCatalogSize is four times offercache.DefaultSize, so with uniform
// popularity about three lookups in four miss.
const coldCatalogSize = 4096

// videoLadder is the rung list cold-catalog documents draw their video
// qualities from, best first.
var videoLadder = []qos.VideoQoS{
	{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
	{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
	{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
	{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
	{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
}

// coldCatalog builds catgen-style articles of varied shape: a random
// duration, two or three video rungs, one or two audio grades, one or two
// caption languages, a headline image for one article in three, and every
// variant placed on one, two or all three servers.
func coldCatalog(rng *rand.Rand, servers []media.ServerID) []media.Document {
	docs := make([]media.Document, coldCatalogSize)
	for i := range docs {
		spec := media.NewsArticleSpec{
			ID:           media.DocumentID(fmt.Sprintf("article-%d", i+1)),
			Title:        fmt.Sprintf("Catalog article %d", i+1),
			Duration:     time.Duration(60+rng.Intn(240)) * time.Second,
			Servers:      servers,
			CopyrightFee: int64(100 + rng.Intn(900)),
			WithImage:    rng.Intn(3) == 0,
		}
		rungs := 2 + rng.Intn(2)
		for _, j := range rng.Perm(len(videoLadder))[:rungs] {
			spec.VideoQualities = append(spec.VideoQualities, videoLadder[j])
		}
		spec.AudioQualities = []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}}
		if rng.Intn(2) == 0 {
			spec.AudioQualities = append(spec.AudioQualities, qos.AudioQoS{Grade: qos.TelephoneQuality, Language: qos.English})
		}
		spec.Languages = []qos.Language{qos.English}
		if rng.Intn(2) == 0 {
			spec.Languages = append(spec.Languages, qos.French)
		}
		docs[i] = media.Replicate(media.BuildNewsArticle(spec), servers, 1+rng.Intn(3))
	}
	return docs
}

// serverIDs names servers server-1..n.
func serverIDs(n int) []media.ServerID {
	ids := make([]media.ServerID, n)
	for i := range ids {
		ids[i] = media.ServerID(fmt.Sprintf("server-%d", i+1))
	}
	return ids
}

// buildTopology builds qosnegd's star (10 Mbit/s access links, 100 Mbit/s
// server links, one switch) for the workload's clients and servers. With
// mesh set it adds three switches, each linked to the hub, to every server
// and to each other: a server reaches the hub over dozens of loop-free
// paths, some through the other server.
func buildTopology(w workload) (*network.Network, error) {
	var clients, servers []network.NodeID
	for i := 1; i <= callers*w.machinesPerCaller; i++ {
		clients = append(clients, network.NodeID(fmt.Sprintf("client-%d", i)))
	}
	for _, id := range serverIDs(w.servers) {
		servers = append(servers, network.NodeID(id))
	}
	n, err := network.BuildStar(network.StarSpec{Clients: clients, Servers: servers})
	if err != nil {
		return nil, err
	}
	if !w.mesh {
		return n, nil
	}
	const capacity = 100 * qos.MBitPerSecond
	extra := []network.NodeID{"switch-a", "switch-b", "switch-c"}
	link := func(a, b network.NodeID) error {
		return n.AddDuplex(network.LinkID(fmt.Sprintf("%s-%s", a, b)), a, b, capacity, time.Millisecond, time.Millisecond, 0.0002)
	}
	for i, sw := range extra {
		if err := link(sw, "switch"); err != nil {
			return nil, err
		}
		for _, s := range servers {
			if err := link(sw, s); err != nil {
				return nil, err
			}
		}
		for _, other := range extra[:i] {
			if err := link(sw, other); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// callerMachines returns caller c's workstations: client-(cM+1) ..
// client-(cM+M). Every workstation has the same capabilities, so the
// offer cache shares entries across callers.
func callerMachines(w workload, c int) []client.Machine {
	ms := make([]client.Machine, w.machinesPerCaller)
	for i := range ms {
		node := network.NodeID(fmt.Sprintf("client-%d", c*w.machinesPerCaller+i+1))
		ms[i] = client.Workstation(client.MachineID(node), node)
	}
	return ms
}

// requests is one caller's request stream: machines in turn, documents
// drawn uniformly from the catalog by a generator seeded from the workload
// seed and the caller, so a seed fixes every caller's sequence.
type requests struct {
	machines []client.Machine
	docs     int
	rng      *rand.Rand
	n        int
}

func newRequests(w workload, seed int64, c, docs int) *requests {
	return &requests{
		machines: callerMachines(w, c),
		docs:     docs,
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(c) + 1)),
	}
}

// next returns the machine and the catalog index of the next request.
func (r *requests) next() (client.Machine, int) {
	m := r.machines[r.n%len(r.machines)]
	r.n++
	return m, r.rng.Intn(r.docs)
}

// catalogFor builds the workload's documents for a seed.
func catalogFor(w workload, seed int64) []media.Document {
	return w.catalog(rand.New(rand.NewSource(seed)), serverIDs(w.servers))
}
