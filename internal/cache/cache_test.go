package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutVersionFence(t *testing.T) {
	c := New(1<<20, 0)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "v1", 2, 1)
	v, ok := c.Get("k", 1)
	if !ok || v.(string) != "v1" {
		t.Fatalf("Get(k,1) = %v, %v; want v1, true", v, ok)
	}
	// a different version is the commit fence: stale entry is evicted
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("served stale entry across a version step")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not removed: Len=%d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 1 eviction", st)
	}
}

func TestByteBoundEvictsLRU(t *testing.T) {
	c := New(100, 0)
	c.Put("a", 1, 40, 0)
	c.Put("b", 2, 40, 0)
	c.Get("a", 0) // touch a so b is the LRU victim
	c.Put("c", 3, 40, 0)
	if _, ok := c.Get("b", 0); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Fatal("recently-used a evicted")
	}
	if _, ok := c.Get("c", 0); !ok {
		t.Fatal("newest entry c evicted")
	}
	if got := c.Bytes(); got > 100 {
		t.Fatalf("Bytes() = %d > bound 100", got)
	}
}

func TestEntryBound(t *testing.T) {
	c := New(0, 3)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1, 0)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d; want entry cap 3", c.Len())
	}
	for i := 7; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i), 0); !ok {
			t.Fatalf("newest entry k%d missing", i)
		}
	}
}

func TestOversizeValueNotStored(t *testing.T) {
	c := New(10, 0)
	c.Put("big", 1, 11, 0)
	if c.Len() != 0 {
		t.Fatal("oversize value was stored")
	}
}

func TestReplaceAccountsBytes(t *testing.T) {
	c := New(100, 0)
	c.Put("k", 1, 60, 0)
	c.Put("k", 2, 30, 0)
	if got := c.Bytes(); got != 30 {
		t.Fatalf("Bytes after replace = %d; want 30", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after replace = %d; want 1", c.Len())
	}
}

func TestGetAnyAndRemove(t *testing.T) {
	c := New(0, 10)
	c.Put("x", "vx", 1, 7)
	v, ver, ok := c.GetAny("x")
	if !ok || v.(string) != "vx" || ver != 7 {
		t.Fatalf("GetAny = %v, %d, %v", v, ver, ok)
	}
	c.Put("y", "vy", 1, 7)
	c.Remove("x")
	if c.Len() != 1 {
		t.Fatalf("Len after Remove = %d; want 1", c.Len())
	}
	if _, _, ok := c.GetAny("x"); ok {
		t.Fatal("x survived Remove")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1<<14, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%32)
				c.Put(k, i, 64, int64(i%3))
				c.Get(k, int64(i%3))
				if i%50 == 0 {
					c.Remove(k)
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 1<<14 || c.Len() > 64 {
		t.Fatalf("bounds violated: %d bytes, %d entries", c.Bytes(), c.Len())
	}
}
