package main

import (
	_ "embed"
	"encoding/json"
)

// reference.json maps workload → master seed → the SHA-256 digest of the
// workload's output, recorded with --record from the program this
// benchmark was defined against. A change that alters any result byte
// fails the benchmark's correctness check at these seeds.
//
//go:embed reference.json
var referenceJSON []byte

var references = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &m); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return m
}()
