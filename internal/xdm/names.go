package xdm

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// isName reports whether b is an XML name as encoding/xml checks one:
// valid UTF-8, a name-start character, then name characters.
func isName(b []byte) bool {
	for i := 0; i < len(b); {
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 || !unicode.Is(nameStart, r) && (i == 0 || !unicode.Is(nameRest, r)) {
			return false
		}
		i += n
	}
	return len(b) > 0
}

// nameStart and nameRest are the character classes of XML 1.0 (4th
// edition) Appendix B that encoding/xml names with: Letter, '_' and ':'
// start a name; digits, '.', '-', combining characters and extenders
// may continue one. Entries are hex code points and inclusive ranges.
var nameStart = rangeTable(`3a 41-5a 5f 61-7a c0-d6 d8-f6 f8-ff 100-131 134-13e 141-148 14a-17e 180-1c3 1cd-1f0 1f4-1f5
	1fa-217 250-2a8 2bb-2c1 386 388-38a 38c 38e-3a1 3a3-3ce 3d0-3d6 3da 3dc 3de 3e0 3e2-3f3
	401-40c 40e-44f 451-45c 45e-481 490-4c4 4c7-4c8 4cb-4cc 4d0-4eb 4ee-4f5 4f8-4f9 531-556 559
	561-586 5d0-5ea 5f0-5f2 621-63a 641-64a 671-6b7 6ba-6be 6c0-6ce 6d0-6d3 6d5 6e5-6e6 905-939
	93d 958-961 985-98c 98f-990 993-9a8 9aa-9b0 9b2 9b6-9b9 9dc-9dd 9df-9e1 9f0-9f1 a05-a0a
	a0f-a10 a13-a28 a2a-a30 a32-a33 a35-a36 a38-a39 a59-a5c a5e a72-a74 a85-a8b a8d a8f-a91
	a93-aa8 aaa-ab0 ab2-ab3 ab5-ab9 b05-b0c b0f-b10 b13-b28 b2a-b30 b32-b33 b36-b39 b3d b5c-b5d
	b5f-b61 b85-b8a b8e-b90 b92-b95 b99-b9a b9c b9e-b9f ba3-ba4 ba8-baa bae-bb5 bb7-bb9 c05-c0c
	c0e-c10 c12-c28 c2a-c33 c35-c39 c60-c61 c85-c8c c8e-c90 c92-ca8 caa-cb3 cb5-cb9 cde ce0-ce1
	d05-d0c d0e-d10 d12-d28 d2a-d39 d60-d61 e01-e2e e30 e32-e33 e40-e45 e81-e82 e84 e87-e88 e8a
	e8d e94-e97 e99-e9f ea1-ea3 ea5 ea7 eaa-eab ead-eae eb0 eb2-eb3 ebd ec0-ec4 f40-f47 f49-f69
	10a0-10c5 10d0-10f6 1100 1102-1103 1105-1107 1109 110b-110c 110e-1112 113c 113e 1140 114c 114e
	1150 1154-1155 1159 115f-1161 1163 1165 1167 1169 116d-116e 1172-1173 11ae-11af 11b7-11b8 11ba
	11bc-11c2 11f9 1e00-1e9b 1ea0-1ef9 1f00-1f15 1f18-1f1d 1f20-1f45 1f48-1f4d 1f50-1f57 1f5d
	1f5f-1f7d 1f80-1fb4 1fb6-1fbc 1fbe 1fc2-1fc4 1fc6-1fcc 1fd0-1fd3 1fd6-1fdb 1fe0-1fec 1ff2-1ff4
	1ff6-1ffc 2126 212a-212b 212e 2180-2182 3007 3021-3029 3041-3094 30a1-30fa 3105-312c 4e00-9fa5
	ac00-d7a3`)

var nameRest = rangeTable(`2d-2e 30-39 b7 2d0-2d1 300-345 360-361 387 483-486 591-5a1 5a3-5b9 5bb-5bd 5bf 5c1-5c2 64b-652
	660-669 670 6d6-6dc 6dd-6df 6e0-6e4 6e7-6e8 6ea-6ed 6f0-6f9 901-903 93c 93e-94c 94d 951-954
	962-963 966-96f 981-983 9bc 9be-9bf 9c0-9c4 9c7-9c8 9cb-9cd 9d7 9e2-9e3 9e6-9ef a3e-a3f
	a40-a42 a47-a48 a4b-a4d a66-a6f a70-a71 a81-a83 abc abe-ac5 ac7-ac9 acb-acd ae6-aef b01-b03
	b3c b3e-b43 b47-b48 b4b-b4d b56-b57 b66-b6f b82-b83 bbe-bc2 bc6-bc8 bca-bcd bd7 be7-bef
	c01-c03 c3e-c44 c46-c48 c4a-c4d c55-c56 c66-c6f c82-c83 cbe-cc4 cc6-cc8 cca-ccd cd5-cd6
	ce6-cef d02-d03 d3e-d43 d46-d48 d4a-d4d d57 d66-d6f e31 e34-e3a e46 e47-e4e e50-e59 eb1
	eb4-eb9 ebb-ebc ec6 ec8-ecd ed0-ed9 f18-f19 f20-f29 f35 f37 f39 f3e-f3f f71-f84 f86-f8b
	f90-f95 f97 f99-fad fb1-fb7 fb9 20d0-20dc 302a-302f 3031-3035 3099-309a 309d-309e 30fc-30fe`)

func rangeTable(spec string) *unicode.RangeTable {
	t := &unicode.RangeTable{}
	for _, f := range strings.Fields(spec) {
		lo, hi, isRange := strings.Cut(f, "-")
		l, _ := strconv.ParseUint(lo, 16, 16)
		h := l
		if isRange {
			h, _ = strconv.ParseUint(hi, 16, 16)
		}
		t.R16 = append(t.R16, unicode.Range16{Lo: uint16(l), Hi: uint16(h), Stride: 1})
	}
	return t
}
