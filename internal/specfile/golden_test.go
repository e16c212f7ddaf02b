package specfile

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strconv"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// goldenTableHashes pins every generated table byte for byte: the SHA-256
// of its CSV encoding (header, then rows in generation order). A change to
// the solver's evaluation kernels must leave all of them untouched.
var goldenTableHashes = map[string]string{
	"C":                    "a4c9b73cf2f2699a4242609c54280b5a835045fa59c98d9dcb9ff7646ca1b561",
	"D":                    "d6442d6c5ed7c9f43246e6371a22d38488201e537cbe71c7683f10221393aec6",
	"INT":                  "8da81adce970c0f978877d0c82dbfbfc189027b008cda22bb029daab09ec72e5",
	"IO":                   "18f0240ebbbeef08b99440346874266ada523893eee8bbefd4fd78fcb93e70a2",
	"M":                    "dfae330328e187530efad9e24813627c5ee2af18967dca09a6d8937dd9b820c8",
	"N":                    "e8825e36c536d8c4345fdab191891fd5f170d84de2e5a760431d473809fbbd93",
	"R":                    "1a8c8d30d57e30370bd7ff4959b65355401955e66060d4e4c03932587ec713a8",
	"SY":                   "6f5e6e3800719e8db6c17fd4ad2f6da5b488c18e57002eee0afd16934544819d",
	"figure3/1":            "93ae6d5c8b07a7c0bc28f54c5ef3153f2047940faabfe7f257e45535c21524f3",
	"figure3/1/monolithic": "93ae6d5c8b07a7c0bc28f54c5ef3153f2047940faabfe7f257e45535c21524f3",
	"figure3/2":            "bbe9211f2617c305d074d144ae7e305bfa6f81108f439cbbf17cf6a6bcba4af8",
	"figure3/2/monolithic": "bbe9211f2617c305d074d144ae7e305bfa6f81108f439cbbf17cf6a6bcba4af8",
	"specs/directory.spec": "d6442d6c5ed7c9f43246e6371a22d38488201e537cbe71c7683f10221393aec6",
	"specs/readex.spec":    "93ae6d5c8b07a7c0bc28f54c5ef3153f2047940faabfe7f257e45535c21524f3",
}

// tableHash is the SHA-256 of t's CSV encoding.
func tableHash(t *testing.T, tab *rel.Table) string {
	t.Helper()
	h := sha256.New()
	if err := tab.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTablesMatchGoldenHashes solves the eight controller specs,
// the Fig. 3 fragment (incremental and monolithic, two scales) and both
// shipped spec files, and checks each table against its recorded hash.
func TestGeneratedTablesMatchGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full D generation is slow")
	}
	got := map[string]string{}
	solve := func(key string, spec *constraint.Spec, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		tab, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = tableHash(t, tab)
	}
	for _, sb := range protocol.SpecBuilders() {
		spec, err := sb.Build()
		solve(sb.Name, spec, err)
	}
	for _, scale := range []int{1, 2} {
		spec, err := protocol.Figure3FragmentSpec(scale)
		key := "figure3/" + strconv.Itoa(scale)
		solve(key, spec, err)
		mono, _, err := constraint.Monolithic(spec)
		if err != nil {
			t.Fatalf("%s monolithic: %v", key, err)
		}
		got[key+"/monolithic"] = tableHash(t, mono)
	}
	for _, name := range []string{"directory.spec", "readex.spec"} {
		f, err := os.Open("../../specs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protocol.RegisterFuncs(parsed.Spec.RegisterFunc)
		solve("specs/"+name, parsed.Spec, nil)
	}
	for key, h := range got {
		if want, ok := goldenTableHashes[key]; !ok || h != want {
			t.Errorf("%s: table hash %s, want %s", key, h, want)
		}
	}
	if len(got) != len(goldenTableHashes) {
		t.Errorf("hashed %d tables, golden set has %d", len(got), len(goldenTableHashes))
	}
}
