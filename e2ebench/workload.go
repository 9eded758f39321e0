package main

import (
	"fmt"
	"math/rand"
)

// kind says which public entry point a request exercises.
type kind string

const (
	kindModel   kind = "model"   // Compile (in-process) or POST /compile {"model"}
	kindSharded kind = "sharded" // CompileSharded or POST /compile {"model","chips"}
	kindOp      kind = "op"      // Search or POST /compile {"op"}
	kindStats   kind = "stats"   // GET /stats, the fleet scraper's poll
)

// request is one benchmark request. The benchmark generates requests
// from the seed; the program only ever sees the compile inputs they
// describe.
type request struct {
	Kind     kind
	Model    string
	Batch    int
	Fusion   bool // compile under WithFusion(graph.DefaultRules())
	Chips    int
	Simulate bool
	M, K, N  int // single matmul operator
}

// key names the distinct request: equal keys must produce identical
// outputs, which is what the output check relies on.
func (r request) key() string {
	switch r.Kind {
	case kindOp:
		return fmt.Sprintf("op/%dx%dx%d", r.M, r.K, r.N)
	case kindStats:
		return "stats"
	}
	return fmt.Sprintf("%s/%s/b%d/fusion=%t/chips=%d/sim=%t",
		r.Kind, r.Model, r.Batch, r.Fusion, r.Chips, r.Simulate)
}

// zoo is the cold-zoo request set: the four Table 2 models, the
// OPT-1.3B prefill and decode steps under fusion, and the prefill
// sharded over 2 and 4 chips.
func zoo() []request {
	out := singleChipZoo()
	for _, chips := range []int{2, 4} {
		out = append(out, request{Kind: kindSharded, Model: "OPT-1.3B-prefill", Batch: 1, Chips: chips})
	}
	return out
}

// singleChipZoo is the zoo without the sharded entries: the models a
// restarted compiler can answer entirely from its disk records.
func singleChipZoo() []request {
	var out []request
	for _, m := range []string{"BERT", "ViT", "ResNet", "NeRF"} {
		out = append(out, request{Kind: kindModel, Model: m, Batch: 1})
	}
	for _, m := range []string{"OPT-1.3B-prefill", "OPT-1.3B-decode"} {
		out = append(out, request{Kind: kindModel, Model: m, Batch: 1, Fusion: true})
	}
	return out
}

// deck is a fixed multiset of requests that a client issues in a
// freshly shuffled order, deck after deck. Drawing whole decks instead
// of independent samples keeps the request mix exact, so the seed
// changes the order and the generated shapes but not the share of
// each request class.
type deck []request

func (d deck) shuffled(rng *rand.Rand) []request {
	out := append([]request(nil), d...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// repeat returns n copies of r.
func repeat(r request, n int) deck {
	d := make(deck, n)
	for i := range d {
		d[i] = r
	}
	return d
}

// matmulShape draws a matmul whose dimensions are multiples of 64 in
// [256, 1216]: large enough that a cold search costs milliseconds,
// small enough that none is near the chip's memory limit.
func matmulShape(rng *rand.Rand) request {
	dim := func() int { return 64 * (4 + rng.Intn(16)) }
	return request{Kind: kindOp, M: dim(), K: dim(), N: dim()}
}

// warmServeOps are the warm-serve workload's repeated single-op
// requests: the projection and feed-forward GEMMs of BERT-base and
// OPT-1.3B layers. They are fixed rather than drawn from the seed so
// that plan_latency_ms, which averages over the distinct requests,
// means the same thing in every run; the seed orders the requests.
func warmServeOps() []request {
	var out []request
	for _, s := range [][3]int{
		{512, 768, 768}, {512, 768, 3072}, {512, 3072, 768}, {128, 768, 2304},
		{256, 2048, 2048}, {256, 2048, 8192}, {256, 8192, 2048}, {64, 2048, 6144},
	} {
		out = append(out, request{Kind: kindOp, M: s[0], K: s[1], N: s[2]})
	}
	return out
}

// warmServeDeck is one deck of the warm-serve mix (100 requests): zoo
// models compiled plain with and without simulation, the repeated
// single-op shapes, the prefill sharded over 2 and 4 chips (always
// simulated), and /stats scrapes. The shares put the median inside the
// model compiles and the 90th percentile inside the 2-chip sharded
// compiles, away from the class boundaries where a quantile would
// jump between classes from run to run.
func warmServeDeck() deck {
	var d deck
	for _, m := range []string{"BERT", "ViT", "ResNet", "NeRF", "OPT-1.3B-prefill", "OPT-1.3B-decode"} {
		d = append(d, repeat(request{Kind: kindModel, Model: m, Batch: 1}, 4)...)
		d = append(d, repeat(request{Kind: kindModel, Model: m, Batch: 1, Simulate: true}, 4)...)
	}
	for _, op := range warmServeOps() {
		d = append(d, repeat(op, 4)...)
	}
	for _, chips := range []int{2, 4} {
		d = append(d, repeat(request{Kind: kindSharded, Model: "OPT-1.3B-prefill", Batch: 1, Chips: chips, Simulate: true}, 7)...)
	}
	d = append(d, repeat(request{Kind: kindStats}, 4)...)
	return d
}

// churnNovelPerDeck of every churnDeckLen churn-serve requests are
// shapes the server has never seen; the rest repeat one of the client's
// churnWindow most recent novel shapes.
const (
	churnDeckLen      = 10
	churnNovelPerDeck = 2
	churnWindow       = 16
	churnWarm         = churnWindow // novel shapes each client sends during set-up
)

// churnStream is one churn-serve client's request sequence. It is a
// function of the seed and the client index alone: the two clients draw
// from disjoint shape sets (N/64 even for client 0, odd for client 1,
// so N reaches 1280), and no shape is novel twice.
type churnStream struct {
	rng    *rand.Rand
	client int
	seen   map[string]bool
	recent []request
	issued []request // every novel shape sent, in order
}

func newChurnStream(seed int64, client int) *churnStream {
	return &churnStream{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		client: client,
		seen:   map[string]bool{},
	}
}

// novel returns a shape this client has not sent before.
func (s *churnStream) novel() request {
	for {
		r := matmulShape(s.rng)
		if (r.N/64)%2 != s.client {
			r.N += 64
		}
		if !s.seen[r.key()] {
			s.seen[r.key()] = true
			s.issued = append(s.issued, r)
			s.recent = append(s.recent, r)
			if len(s.recent) > churnWindow {
				s.recent = s.recent[1:]
			}
			return r
		}
	}
}

// deck returns the client's next churnDeckLen requests.
func (s *churnStream) deck() []request {
	slots := make([]bool, churnDeckLen) // true = novel
	for _, i := range s.rng.Perm(churnDeckLen)[:churnNovelPerDeck] {
		slots[i] = true
	}
	out := make([]request, churnDeckLen)
	for i, isNovel := range slots {
		if isNovel || len(s.recent) == 0 {
			out[i] = s.novel()
		} else {
			out[i] = s.recent[s.rng.Intn(len(s.recent))]
		}
	}
	return out
}
