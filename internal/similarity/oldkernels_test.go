package similarity

import (
	"strings"
	"testing"
)

// The kernels below are the pre-optimisation Jaro, JaroWinkler and
// NameLevel, kept verbatim (renamed) as oracles: the stack-buffered Jaro
// and the guard-first NameLevel must agree with them on every input.

func jaroOld(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	// Match window: characters match if equal and within window distance.
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func jaroWinklerOld(a, b string) float64 {
	j := jaroOld(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < winklerMaxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*winklerPrefixScale*(1-j)
}

func nameLevelOld(a, b Name) Level {
	if a.Last == "" || b.Last == "" {
		return LevelNone
	}
	if a.Abbreviated() || b.Abbreviated() {
		if a.First != "" && b.First != "" && a.First[0] != b.First[0] {
			return LevelNone
		}
		ls := jaroWinklerOld(a.Last, b.Last)
		switch {
		case ls >= lastMediumThreshold:
			return LevelMedium
		case ls >= lastWeakThreshold:
			return LevelWeak
		default:
			return LevelNone
		}
	}
	// Identical spelled-out names are the only Level-3 evidence.
	if a == b {
		return LevelStrong
	}
	s := jaroWinklerOld(a.String(), b.String())
	// Guard against first or last names that disagree wholesale even
	// though the combined string happens to score well ("John Smith" vs
	// "Jane Smith" shares most of its characters but is no candidate).
	if jaroWinklerOld(a.Last, b.Last) < lastWeakThreshold {
		return LevelNone
	}
	if a.First != "" && b.First != "" && jaroWinklerOld(a.First, b.First) < firstCompatibility {
		return LevelNone
	}
	switch {
	case s >= fullMediumThreshold:
		return LevelMedium
	case s >= fullWeakThreshold:
		return LevelWeak
	default:
		return LevelNone
	}
}

// FuzzJaroMatchesOld: Jaro and Jaro-Winkler agree with the heap-buffered
// originals bit for bit, on both sides of the stack-buffer length.
func FuzzJaroMatchesOld(f *testing.F) {
	f.Add("martha", "marhta")
	f.Add("", "x")
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 33))
	f.Add(strings.Repeat("x", jaroStackLen), strings.Repeat("x", jaroStackLen+1))
	f.Add("dixon", strings.Repeat("dicksonx", 9))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 512 || len(b) > 512 {
			return
		}
		if got, want := Jaro(a, b), jaroOld(a, b); got != want {
			t.Fatalf("Jaro(%q,%q) = %v, old %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), jaroWinklerOld(a, b); got != want {
			t.Fatalf("JaroWinkler(%q,%q) = %v, old %v", a, b, got, want)
		}
	})
}

// FuzzNameLevelMatchesOld: checking the first- and last-name guards
// before the full-string score leaves every level unchanged.
func FuzzNameLevelMatchesOld(f *testing.F) {
	f.Add("Vibhor Rastogi", "V. Rastogi")
	f.Add("John Smith", "Jane Smith")
	f.Add("jon smith", "john smyth")
	f.Add("a b c", "a b d")
	f.Add("", "x")
	f.Add(strings.Repeat("long", 20)+" name", strings.Repeat("long", 19)+" nome")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 512 || len(b) > 512 {
			return
		}
		na, nb := ParseName(a), ParseName(b)
		if got, want := NameLevel(na, nb), nameLevelOld(na, nb); got != want {
			t.Fatalf("NameLevel(%q,%q) = %d, old %d", a, b, got, want)
		}
	})
}

// TestNameLevelMatchesOldOnNames runs the guard-order differential over
// a grid of realistic name variants.
func TestNameLevelMatchesOldOnNames(t *testing.T) {
	names := []string{
		"Vibhor Rastogi", "V. Rastogi", "Vibhor Rastogy", "Nilesh Dalvi", "N. Dalvi",
		"John Smith", "Jane Smith", "Jon Smith", "J. Smith", "John Smyth", "Smith",
		"Minos Garofalakis", "M. Garofalakis", "Minos N. Garofalakis", "", "A B",
	}
	for _, a := range names {
		for _, b := range names {
			na, nb := ParseName(a), ParseName(b)
			if got, want := NameLevel(na, nb), nameLevelOld(na, nb); got != want {
				t.Errorf("NameLevel(%q,%q) = %d, old %d", a, b, got, want)
			}
		}
	}
}

// TestJaroWinklerAllocFree pins the stack buffers: scoring strings up to
// the buffer length allocates nothing.
func TestJaroWinklerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a, b := "vibhor rastogi", "v rastogy"
	long := strings.Repeat("q", jaroStackLen)
	if n := testing.AllocsPerRun(100, func() {
		JaroWinkler(a, b)
		JaroWinkler(long, long[1:])
	}); n != 0 {
		t.Fatalf("JaroWinkler allocates %v times per run on short strings, want 0", n)
	}
}
