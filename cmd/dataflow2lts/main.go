// Command dataflow2lts converts a data-flow model document into its
// visualisations and formal model: the data-flow diagrams of the paper's
// Fig. 1 (Graphviz DOT), and the generated privacy LTS of Figs. 3/4 (DOT or
// JSON).
//
// Usage:
//
//	dataflow2lts -model model.json -mode dataflow            # Fig. 1 DOT
//	dataflow2lts -model model.json -mode dataflow -service medical-service
//	dataflow2lts -model model.json -mode lts                 # privacy LTS DOT
//	dataflow2lts -model model.json -mode lts-json            # privacy LTS JSON
//	dataflow2lts -model model.json -mode stats               # model and LTS sizes
//
// Ctrl-C (SIGINT) cancels an in-flight generation: the exploration workers
// observe the cancellation, the partial state space is discarded, and the
// tool exits non-zero ("interrupted") instead of being hard-killed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"privascope"
	"privascope/internal/core"
	"privascope/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dataflow2lts: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "dataflow2lts:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dataflow2lts", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the model document (JSON)")
	mode := fs.String("mode", "dataflow", "output: dataflow, lts, lts-json, or stats")
	serviceID := fs.String("service", "", "restrict the data-flow diagram to one service")
	ordering := fs.String("ordering", "sequential", "flow ordering: sequential or data-driven")
	verbose := fs.Bool("verbose-states", false, "list state variables inside LTS nodes")
	modelCache := fs.String("model-cache", "", "directory of the persistent compiled-model cache (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("the -model flag is required")
	}
	model, err := privascope.LoadModel(*modelPath)
	if err != nil {
		return err
	}

	var opts core.Options
	if *ordering == "data-driven" {
		opts.FlowOrdering = core.OrderDataDriven
	}
	// The engine caches compiled models by content fingerprint; with
	// -model-cache it also persists them, so repeat conversions of an
	// unchanged model skip LTS generation entirely.
	engine, err := privascope.NewEngine(privascope.EngineOptions{Generate: opts, CacheDir: *modelCache})
	if err != nil {
		return err
	}

	switch *mode {
	case "dataflow":
		if *serviceID != "" {
			dot, err := model.ServiceDOT(*serviceID)
			if err != nil {
				return err
			}
			fmt.Fprint(out, dot)
			return nil
		}
		fmt.Fprint(out, model.DOT())
		return nil
	case "lts":
		generated, err := engine.Model(ctx, model)
		if err != nil {
			return err
		}
		fmt.Fprint(out, generated.DOT(core.DOTOptions{Name: "privacy_lts", VerboseStates: *verbose}))
		return nil
	case "lts-json":
		generated, err := engine.Model(ctx, model)
		if err != nil {
			return err
		}
		data, err := json.Marshal(generated)
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	case "stats":
		generated, err := engine.Model(ctx, model)
		if err != nil {
			return err
		}
		if _, err := report.ModelSummary(generated).WriteTo(out); err != nil {
			return fmt.Errorf("writing model summary: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want dataflow, lts, lts-json, or stats)", *mode)
	}
}
