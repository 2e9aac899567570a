package main

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/workload"
)

// Workload names. BENCHMARK.json lists lrc-query and lrc-churn; README.md
// says why rli-softstate is not in it.
const (
	wlQuery = "lrc-query"
	wlChurn = "lrc-churn"
	wlSoft  = "rli-softstate"
)

var workloads = []string{wlQuery, wlChurn, wlSoft}

// zipfTheta is the request skew of the Zipf draws (YCSB-style, rank 0
// hottest).
const zipfTheta = 0.9

type opKind uint8

const (
	opGet opKind = iota
	opCreate
	opDelete
	opRLI
)

var kindNames = [...]string{"get_targets", "create", "delete", "rli_query"}

// op is one generated request. miss marks an RLI query for a name no LRC
// holds.
type op struct {
	kind    opKind
	logical string
	target  string
	miss    bool
}

// mix is an operation mix a stream draws from.
type mix uint8

const (
	mixZipfGet    mix = iota // GetTargets, Zipf over the catalog
	mixUniformGet            // GetTargets, uniform over the catalog
	mixChurn                 // 40% create fresh, 40% delete own, 20% uniform get
	mixRLI                   // RLIQuery, Zipf over the catalog, 1 in 10 a miss
)

// Name spaces: the preloaded catalog, names created during the run, and
// names no LRC ever holds.
var (
	catNames   = workload.Names{Space: "bench"}
	freshNames = workload.Names{Space: "fresh"}
	missNames  = workload.Names{Space: "miss"}
)

// hotSeed fixes which catalog names are hot. It is not the run's seed: the
// few hottest names carry a large share of a Zipf draw, so letting the seed
// place them would move their shards' load split, and with it every
// metric, from one seed to the next. The seed picks the request sequence.
const hotSeed = 1

// catalog is the preloaded set of mappings, one target per logical name.
type catalog struct {
	logical []string
	target  []string
	hot     []int // Zipf rank -> catalog index, a fixed permutation
}

func newCatalog(n int) *catalog {
	c := &catalog{logical: make([]string, n), target: make([]string, n)}
	for i := range c.logical {
		c.logical[i] = catNames.Logical(i)
		c.target[i] = catNames.Target(i, 0)
	}
	c.hot = rand.New(rand.NewSource(hotSeed)).Perm(n)
	return c
}

func (c *catalog) size() int { return len(c.logical) }

// Stream ids. Each stream has its own seeded generator, so the sequence a
// worker issues depends only on the seed and its id, never on timing.
const (
	streamSerial   = 0
	streamWindowed = 1    // + worker index
	streamWarmup   = 100  // + worker index
	streamTraced   = 200  // + worker index
	streamLadder   = 1000 // read keys; +1 RLI keys; +2.. fresh names per write rung
)

// stream generates one worker's operations.
type stream struct {
	mix  mix
	id   int
	cat  *catalog
	r    *rand.Rand
	zipf *workload.Zipf

	created int   // fresh names created so far
	live    []int // fresh ids created and not yet deleted, oldest first
}

func newStream(m mix, cat *catalog, seed int64, id int) *stream {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
		b[8+i] = byte(int64(id) >> (8 * i))
	}
	_, _ = h.Write(b[:]) // hash writes cannot fail
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	s := &stream{mix: m, id: id, cat: cat, r: r}
	if m == mixZipfGet || m == mixRLI {
		s.zipf = workload.NewZipf(r, cat.size(), zipfTheta)
	}
	return s
}

func (s *stream) get(i int) op {
	return op{kind: opGet, logical: s.cat.logical[i], target: s.cat.target[i]}
}

// create names a fresh mapping unique to this stream.
func (s *stream) create() op {
	id := s.id*1_000_000 + s.created
	s.created++
	s.live = append(s.live, id)
	return op{kind: opCreate, logical: freshNames.Logical(id), target: freshNames.Target(id, 0)}
}

// remove deletes the stream's oldest live creation. Workers are closed
// loops, so that create has completed before this delete is issued.
func (s *stream) remove() op {
	id := s.live[0]
	s.live = s.live[1:]
	return op{kind: opDelete, logical: freshNames.Logical(id), target: freshNames.Target(id, 0)}
}

func (s *stream) next() op {
	switch s.mix {
	case mixZipfGet:
		return s.get(s.cat.hot[s.zipf.Next()])
	case mixUniformGet:
		return s.get(s.r.Intn(s.cat.size()))
	case mixChurn:
		switch u := s.r.Intn(10); {
		case u < 4:
			return s.create()
		case u < 8:
			if len(s.live) == 0 {
				return s.create()
			}
			return s.remove()
		default:
			return s.get(s.r.Intn(s.cat.size()))
		}
	default: // mixRLI
		if s.r.Intn(10) == 0 {
			return op{kind: opRLI, logical: missNames.Logical(s.r.Intn(s.cat.size())), miss: true}
		}
		i := s.cat.hot[s.zipf.Next()]
		return op{kind: opRLI, logical: s.cat.logical[i], target: s.cat.target[i]}
	}
}

// mixes gives a workload's windowed (and serial) mix and the mix its
// ladder reads replay.
func mixes(wl string) (load, ladderReads mix) {
	switch wl {
	case wlChurn:
		return mixChurn, mixUniformGet
	case wlSoft:
		return mixRLI, mixZipfGet
	default:
		return mixZipfGet, mixZipfGet
	}
}

// digestOps is how many operations of each stream the digest covers.
const digestOps = 2048

// opDigest fingerprints the seeded operation sequence: the first digestOps
// operations of every stream the measured phases and the ladder draw from.
// Workers stop at a time limit, so how far each stream gets varies; which
// operations it issues, in which order, does not.
func opDigest(wl string, cat *catalog, seed int64, window int) uint64 {
	load, reads := mixes(wl)
	h := fnv.New64a()
	feed := func(s *stream) {
		for i := 0; i < digestOps; i++ {
			o := s.next()
			_, _ = h.Write([]byte{byte(s.id), byte(s.id >> 8), byte(o.kind)}) // hash writes cannot fail
			_, _ = h.Write([]byte(o.logical))
		}
	}
	feed(newStream(load, cat, seed, streamSerial))
	for w := 0; w < window; w++ {
		feed(newStream(load, cat, seed, streamWindowed+w))
	}
	feed(newStream(reads, cat, seed, streamLadder))
	feed(newStream(mixRLI, cat, seed, streamLadder+1))
	return h.Sum64()
}
