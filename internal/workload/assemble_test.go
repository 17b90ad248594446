package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"atum/internal/kernel"
	"atum/internal/vax"
)

// programDigest hashes everything Assemble returns: the origin, the
// image bytes, the symbol table in name order and the listing's line
// map.
func programDigest(p *vax.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "origin %#x bytes %d\n", p.Origin, len(p.Bytes))
	h.Write(p.Bytes)
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%#x\n", name, p.Symbols[name])
	}
	for _, li := range p.Lines {
		fmt.Fprintf(h, "%d %#x %d\n", li.Line, li.Addr, li.Len)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assembledPrograms assembles the kernel, every workload and every
// example under examples/asm, keyed by a name for each.
func assembledPrograms(t testing.TB) map[string]*vax.Program {
	t.Helper()
	progs := map[string]*vax.Program{}
	add := func(name, src string) {
		p, err := vax.Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = p
	}
	add("kernel", kernel.Source)
	for _, w := range All {
		add("workload/"+w.Name, w.Source+libSource)
	}
	paths, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("examples/"+filepath.Base(path), string(src))
	}
	return progs
}

// assembledDigests are programDigest of every program assembledPrograms
// builds. The assembler sizes in one pass and emits in the next; any
// change to how it does that must leave every image, symbol table and
// line map exactly as these hashes record them.
var assembledDigests = map[string]string{
	"examples/countdown.s": "0cbf1a0d15a14b8506b424ab5ae68e5ee0f9650b37515ef5c7941faca39b497b",
	"examples/hello.s":     "efccd935d20c825f9a57b9dbd71be337f187ff315a8570f24f612cfb343f524d",
	"examples/sum.s":       "7952081f96b70f2ca2a7ac94036d8a773c14c6758939c87b51d52f9f62fde7a7",
	"kernel":               "871a79d0b8d95ead2b10f0f3b62cefdcf472672aecdc03ca937ca255d3905992",
	"workload/consumer":    "f6b6809bdc70c3f1f787ca31bfcba825d805b6240654d2bb37f72976bf4f7cd3",
	"workload/fib":         "9acf90247269d3073871538e98fbffd9ff272265bb1cf613c47aab040f7b7869",
	"workload/grep":        "434702f062007f01e6e0fcd0fac3b3417a7ee82f37e64f05c1bcb5d4c7a3250f",
	"workload/hanoi":       "f2c237c2c84d8f1918998675796689e208621060bcc17e40522f3444da8c532c",
	"workload/hash":        "0a3c36fd34537bb4a99700def589452833f955be362707c2e8c03e55bd1e2d43",
	"workload/list":        "b036a614ac701c4bc0fef777c63a395a94d2233de2dc470268e448c2c7c220dc",
	"workload/mandel":      "df9ca457b31148e93a7ccc04e1cd559762b2bb756e19f6933e5a8f021eefad1c",
	"workload/matmul":      "83327652072946fc901ce1be569a0839a54e02153a6faa5934b38b74a17f3301",
	"workload/pagestress":  "b55050550dd7826701b2a026d1a04ad31a007c84d39ac64467bbf83ee7c0c3a7",
	"workload/producer":    "747d6963ca77b9bdbd09307a6d78493baf1ff4f415619b8bad248610a47bc480",
	"workload/qsort":       "aa4d3e7fdf5ca81d840b3f970c15e574eb7994fe1970a905cb86771f97dff1f5",
	"workload/queue":       "dc9126e0f0a14a8a7871cfa9e37911568cf074239f9c96e8e5e86082afe2c8c4",
	"workload/selftime":    "c1437206c57e7c31ddc2ba515527e94b6f3485b4e526745801808d36363ba039",
	"workload/sieve":       "1e9480d598eed2ebc51b7950a23cec11a098a58ed57e222ef5e217f0238dfa11",
	"workload/sort":        "09eabbf1d3ab8a70bed1bb4f31103137e7b2a34f71e9996d9664ae80a13947a9",
	"workload/strops":      "cc2ab8d63459eb1b865b458616e080addab98a61eefefe7656bc483e130f7850",
	"workload/tree":        "4f45160c4f1627ece647e66c1fc3241612f3218b28c37f09e150e67134754ed8",
	"workload/wc":          "9d5de3a1eb94104572d64b4a0899d807ddbb02f50b432d828c999655f79edf4a",
}

// TestAssembledProgramsPinned: the kernel, every workload and every
// example assemble to exactly the pinned images, symbol tables and line
// maps, and no program goes unpinned.
func TestAssembledProgramsPinned(t *testing.T) {
	progs := assembledPrograms(t)
	for name, p := range progs {
		want, ok := assembledDigests[name]
		if !ok {
			t.Errorf("%s: no pinned digest", name)
			continue
		}
		if got := programDigest(p); got != want {
			t.Errorf("%s: digest %s, want %s (%d bytes, %d symbols, %d lines)",
				name, got, want, len(p.Bytes), len(p.Symbols), len(p.Lines))
		}
	}
	for name := range assembledDigests {
		if _, ok := progs[name]; !ok {
			t.Errorf("%s: pinned but not assembled", name)
		}
	}
}

// BenchmarkAssembleMix times assembling the kernel and each program of
// the 13-process mix, which a process does once before its first boot.
func BenchmarkAssembleMix(b *testing.B) {
	mix := Mixes["everything"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vax.Assemble(kernel.Source); err != nil {
			b.Fatal(err)
		}
		for _, name := range mix {
			w, _ := ByName(name)
			if _, err := vax.Assemble(w.Source + libSource); err != nil {
				b.Fatal(err)
			}
		}
	}
}
