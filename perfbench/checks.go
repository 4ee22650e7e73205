package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs/colf"
)

// pins holds the sha256 of each artifact at defaultSeed. A run at that seed
// fails unless every artifact matches; at other seeds the artifacts are
// checked for determinism and shape instead.
var pins = map[string]string{
	"battery-full/table": "a0c4d6810543befdceed105b5c0ba27cd9fb47bd61d271b3b964c966c237e48f",
	"fleet-city/table":   "0e8e9fbedc5b402c680cfc1a5869bd26674417d02894a23ef710751acda87f48",
	"fleet-city/metrics": "c5bd96494e0ac5ea2629392d9f3aebde753a967327d770775e0507e0970c7765",
	"fleet-city/trace":   "e22da42e318ade1969e67266b1c8a5b11198d804863d9b03c3f59b4630edba94",
	"serve-mix/bodies":   "5c1a95560bc18cd7583b80a35b666b6f91a85e0f3f83256f10b41dc31c4d84ca",
}

// fileHash returns the hex sha256 of the file at path.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkPin compares an artifact hash with its pin when the run uses the
// default seed, and says whether it matched (or was not checked).
func checkPin(r *result, seed int64, name, hash string) bool {
	if seed != defaultSeed {
		return true
	}
	want, ok := pins[name]
	if !ok || want == "" {
		r.problem("no pinned hash for %s (got %s)", name, hash)
		return false
	}
	if hash != want {
		r.problem("%s hash %s, pinned %s", name, hash, want)
		return false
	}
	return true
}

// checkFleetTrace decodes a fleet-city colf trace and checks its shape: for
// each mix in table order, one "fleet/session" record for every every-th
// UE id, in id order, tagged with the mix. It returns the record count.
func checkFleetTrace(path string, ues, every int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd := colf.NewReader(f)
	perMix := (ues + every - 1) / every
	n := 0
	for {
		scope, rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, fmt.Errorf("decoding %s: record %d: %w", path, n, err)
		}
		mixIdx, i := n/perMix, n%perMix
		if mixIdx >= len(fleet.AllMixes) {
			return n, fmt.Errorf("%s: more than %d records", path, perMix*len(fleet.AllMixes))
		}
		var ue float64 = -1
		var mix string
		for _, fl := range rec.Fields() {
			switch fl.Key {
			case "ue":
				ue = fl.Num
			case "mix":
				mix = fl.Str
			}
		}
		if scope != "fleet" || rec.Sub != "fleet" || rec.Name != "session" ||
			ue != float64(i*every) || mix != fleet.AllMixes[mixIdx].String() {
			return n, fmt.Errorf("%s: record %d is %s/%s/%s ue %v mix %q, want fleet/fleet/session ue %d mix %s",
				path, n, scope, rec.Sub, rec.Name, ue, mix, i*every, fleet.AllMixes[mixIdx])
		}
		n++
	}
	if want := perMix * len(fleet.AllMixes); n != want {
		return n, fmt.Errorf("%s: %d records, want %d", path, n, want)
	}
	return n, nil
}
