package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"

	"dicer/internal/experiments"
)

// pins are the digests of each workload's outputs at the default seed:
// for the sweep, every run's result and the Figure-1 table; for the
// fleets, the Result summary, the dicer-fleet/v1 trace bytes and the
// sealed incident bundles. The sweep has no seed, so its pins hold at
// every seed.
var pins = map[string]map[string]string{
	"sweep": {
		"results": "4605ccc506509ef9fe99d1f443170ee299775f6478e0eccd831aa50d61d233c3",
		"figure1": "d919973bfc6dad68840917c5e47c0fed0b53f13983808c00b339c06ae70ff0ec",
	},
	"fleet-1k": {
		"result":    "43493a93232c01b448b618a92a721e0b700c6c968bbf2b31374f20b81ebdcbf7",
		"trace":     "d3b8968590c0050f8a07c481fb3c715a4dbda7834cffce05dbfa12477c38d7b0",
		"incidents": "0283373c3f41fcea835e948342e2d571865a2c65176089551f5d92b457f009a7",
	},
	"fleet-64": {
		"result":    "64c9e10e7c0931f786efee9d20133056b2f6df952b0dc8b7d307619653e7345e",
		"trace":     "c3fe6670b6a24cb2183ce0401a39414dd41580721583bee90fc9151dce9a27b2",
		"incidents": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
}

// checkPins compares a reference pass's digests with the pins of its
// workload. Only the default seed is pinned for the fleets; any other
// seed passes here and is held to determinism and conservation alone.
func checkPins(workload string, seed int64, got map[string]string) bool {
	if workload != "sweep" && seed != defaultSeed {
		return true
	}
	want := pins[workload]
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	for _, k := range keys {
		if want[k] != got[k] {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s digest %s, pinned %q\n", workload, k, got[k], want[k])
			ok = false
		}
	}
	return ok
}

func hexSum(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil))
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestResults hashes the sweep's results bit for bit, in job order.
func digestResults(rs []experiments.Result) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%s|%d|%s|", r.Workload.HP, r.Workload.BE, r.Workload.BECount, r.Policy)
		for _, x := range []float64{r.HPIPC, r.BEIPC, r.HPAlone, r.BEAlone} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hexSum(h)
}
