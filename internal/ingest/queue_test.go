package ingest

import (
	"sync"
	"testing"

	"profileme/internal/core"
	"profileme/internal/profile"
)

// testShard builds a shard database with a deterministic PC mix and the
// given number of samples.
func testShard(seed uint64, samples int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < samples; i++ {
		r := core.Record{PC: 0x400 + 8*((seed+uint64(i)*3)%11), LoadComplete: -1}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		r.Events = core.EvRetired
		if i%4 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	return db
}

func sub(shard string, seed uint64, samples int) Submission {
	return Submission{Shard: shard, DB: testShard(seed, samples)}
}

func TestQueueRejectNew(t *testing.T) {
	q := newQueue(2)
	for i := 0; i < 2; i++ {
		if res := q.offer(sub("a", uint64(i), 5)); res != offerAccepted {
			t.Fatalf("offer %d: res=%v", i, res)
		}
	}
	// Full and closed must be distinguishable: full means retry-soon
	// (429), closed means draining (503).
	if res := q.offer(sub("overflow", 9, 5)); res != offerFull {
		t.Fatalf("full queue: res=%v, want OfferFull", res)
	}
	st := q.snapshot()
	if st.Accepted != 2 || st.Rejected != 1 || st.Depth != 2 || st.HighWater != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueCloseDrainsBacklog(t *testing.T) {
	q := newQueue(4)
	q.offer(sub("a", 1, 3))
	q.offer(sub("b", 2, 3))
	q.close()
	if res := q.offer(sub("late", 3, 3)); res != offerClosed {
		t.Fatalf("closed queue: res=%v, want OfferClosed", res)
	}
	var got []string
	for {
		s, ok := q.wait()
		if !ok {
			break
		}
		got = append(got, s.Shard)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("backlog after close: %v", got)
	}
}

// TestQueueConcurrentOfferWait hammers the queue from many producers and
// one consumer; every accepted submission must come out exactly once.
func TestQueueConcurrentOfferWait(t *testing.T) {
	q := newQueue(8)
	const producers, perProducer = 8, 200

	seen := make(map[string]int)
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			s, ok := q.wait()
			if !ok {
				return
			}
			seen[s.Shard]++
		}
	}()

	var accepted sync.Map
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				name := string(rune('A'+p)) + "-" + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26)) + string(rune('a'+i/260))
				if res := q.offer(Submission{Shard: name, DB: testShard(uint64(i), 1)}); res == offerAccepted {
					accepted.Store(name, true)
				}
			}
		}(p)
	}
	wg.Wait()
	q.close()
	<-consumerDone

	var want int
	accepted.Range(func(k, _ any) bool {
		want++
		if seen[k.(string)] != 1 {
			t.Fatalf("submission %v delivered %d times", k, seen[k.(string)])
		}
		return true
	})
	var total int
	for _, n := range seen {
		total += n
	}
	if total != want {
		t.Fatalf("consumer saw %d submissions, %d were accepted", total, want)
	}
	st := q.snapshot()
	if st.Accepted != uint64(want) {
		t.Fatalf("accepted counter %d, want %d", st.Accepted, want)
	}
}
