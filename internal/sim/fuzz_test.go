package sim

import (
	"fmt"
	"testing"
)

// FuzzShardedKernel drives random push/pop/PutFront interleavings across a
// sharded environment and checks the kernel's ordering invariants:
//
//   - per shard, executed events observe a non-decreasing clock (the (time,
//     seq) heap key is a total order, so time can never run backwards);
//   - queue contents follow exact FIFO/PutFront order against a model deque
//     maintained in simulation order;
//   - a cross-shard event is never delivered before its send horizon
//     (send time + lookahead).
//
// The op stream is interpreted deterministically from the fuzz input, so
// any failure reproduces from its corpus entry alone.
func FuzzShardedKernel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("queue-order"))
	f.Add([]byte{2, 2, 2, 3, 3, 3, 4, 4, 0, 0, 1, 1, 4, 4, 4})
	f.Add([]byte{255, 254, 253, 4, 4, 4, 4, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const la = Duration(100)
		nShards := 2 + int(data[0])%3 // 2..4
		env := NewEnv()
		defer env.Close()
		env.Shape(nShards, la)

		queues := make([]*Queue[uint64], nShards)
		model := make([][]uint64, nShards) // expected queue contents, per shard
		lastT := make([]Time, nShards)     // per-shard clock floor
		for s := 0; s < nShards; s++ {
			queues[s] = NewQueue[uint64](env, fmt.Sprintf("fq%d", s), 0).OnShard(s)
		}
		observe := func(s int, now Time) {
			if now < lastT[s] {
				t.Errorf("shard %d clock ran backwards: %v after %v", s, now, lastT[s])
			}
			lastT[s] = now
		}
		popModel := func(s int) uint64 {
			v := model[s][0]
			model[s] = model[s][1:]
			return v
		}
		for s := 0; s < nShards; s++ {
			s := s
			var nextVal uint64 // per-shard counter: values stay race-free and unique
			// Each shard interprets its own slice of the op stream.
			ops := data[s*len(data)/nShards : (s+1)*len(data)/nShards]
			env.SpawnOn(s, fmt.Sprintf("fuzz%d", s), func(p *Proc) {
				for i, op := range ops {
					observe(s, p.Now())
					switch op % 5 {
					case 0: // wait a data-derived stride
						p.Wait(Duration(1 + int(op)%37))
					case 1: // push back
						nextVal++
						v := uint64(s)<<32 | nextVal
						queues[s].Put(p, v)
						model[s] = append(model[s], v)
					case 2: // push front (the priority path)
						nextVal++
						v := uint64(s)<<32 | nextVal
						queues[s].PutFront(v)
						model[s] = append([]uint64{v}, model[s]...)
					case 3: // pop
						if v, ok := queues[s].TryGet(); ok {
							if want := popModel(s); v != want {
								t.Errorf("shard %d dequeue order broken: got %d, want %d", s, v, want)
							}
						} else if len(model[s]) != 0 {
							t.Errorf("shard %d queue empty but model holds %d items", s, len(model[s]))
						}
					case 4: // cross-shard post at exactly the send horizon
						dst := (s + 1 + int(op)%(nShards-1)) % nShards
						sendT := p.Now()
						at := sendT.Add(la + Duration(int(op)%29))
						p.CrossAt(dst, at, func() {
							got := env.shs[dst].now
							if got < sendT.Add(la) {
								t.Errorf("cross event from shard %d delivered at %v, before send horizon %v",
									s, got, sendT.Add(la))
							}
							if got != at {
								t.Errorf("cross event ran at %v, scheduled for %v", got, at)
							}
							observe(dst, got)
						})
						_ = i
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("fuzz program failed: %v", err)
		}
		for s := 0; s < nShards; s++ {
			// Drain what's left so FIFO order is checked end to end.
			for {
				v, ok := queues[s].TryGet()
				if !ok {
					break
				}
				if want := popModel(s); v != want {
					t.Errorf("shard %d residual dequeue order broken: got %d, want %d", s, v, want)
				}
			}
			if len(model[s]) != 0 {
				t.Errorf("shard %d left %d modeled items undelivered", s, len(model[s]))
			}
		}
	})
}
