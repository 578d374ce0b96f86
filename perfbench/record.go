package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// recordReference runs one untraced pass of every workload at each
// seed and writes the results as a reference file. Run it only from a
// commit whose results are known good; the file it writes is what every
// later run is checked against.
func recordReference(path, seedList string) error {
	ref := reference{Seeds: map[string]map[string]entry{}}
	for _, s := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("--seeds: %w", err)
		}
		bySeed := map[string]entry{}
		for i := range workloads {
			w := &workloads[i]
			out, err := runBody(w.setup(setupOpts{seed: seed}), nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			bySeed[w.name] = entry{Digest: digest(out.records), Render: sha(out.rendered), Records: out.records}
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d: %d records, digest %s\n",
				w.name, seed, len(out.records), digest(out.records))
		}
		ref.Seeds[strconv.FormatUint(seed, 10)] = bySeed
	}
	b, err := json.MarshalIndent(&ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
