package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	tart "repro"
)

// adaptCmd renders the adaptive runtime's view from an engine's /adapt
// debug endpoint: the tail of the decision log with the signal that
// motivated each decision.
func adaptCmd(addr string, last int, asJSON bool) error {
	if addr == "" {
		return fmt.Errorf("adapt: -addr is required (engine debug HTTP address)")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/adapt")
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("adapt: engine at %s has no adaptive runtime (enable with WithAdaptiveRuntime)", addr)
	}
	var st tart.AdaptStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("adapt: decode /adapt: %w", err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("adaptive runtime at %s\n", addr)
	ds := st.Decisions
	if last > 0 && len(ds) > last {
		ds = ds[len(ds)-last:]
	}
	if len(ds) == 0 {
		fmt.Println("  decisions: none yet")
		return nil
	}
	fmt.Printf("  decisions (last %d):\n", len(ds))
	for _, d := range ds {
		fmt.Printf("    %s %s\n", d.At.Format("15:04:05.000"), d.String())
	}
	return nil
}
