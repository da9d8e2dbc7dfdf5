// Command siot-sim runs ad-hoc social-IoT trust simulations from flags: it
// generates one of the evaluation networks, assigns roles, and plays
// delegation rounds under a selectable combination of model features
// (mutuality threshold, trust model, delegation strategy),
// printing the resulting rates.
//
// Usage:
//
//	siot-sim -net facebook -rounds 40 -theta 0.3
//	siot-sim -net twitter -mode transitivity -model conservative -chars 5
//	siot-sim -net twitter -mode transitivity -model hellinger-mf
//	siot-sim -experiment model-matrix -model feature-weighted
//	siot-sim -net gplus -mode netprofit -iters 1000 -strategy netprofit
//	siot-sim -rounds 100 -attack onoff -attackers 25
//	siot-sim -experiment attack-collusion -attack badmouth -collude
//
// All modes run on the parallel simulation engine; -parallel sets the
// worker-pool width (0 = GOMAXPROCS) and never changes the printed rates.
//
// -experiment runs a registered table/figure experiment end to end and
// prints its summary table and ASCII charts; the -attack, -attackers, and
// -collude knobs then override the attack-* experiments' adversary model.
// In the default mutuality mode the same knobs inject the attack directly
// into the ad-hoc delegation rounds.
package main

import (
	"flag"
	"fmt"
	"os"

	"siot/internal/adversary"
	"siot/internal/cliutil"
	"siot/internal/core"
	"siot/internal/experiments"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
	"siot/internal/task"
)

func main() {
	var (
		netName    = flag.String("net", "facebook", "network profile: facebook, gplus, twitter")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		mode       = flag.String("mode", "mutuality", "simulation mode: mutuality, transitivity, netprofit")
		experiment = flag.String("experiment", "", "run a registered experiment instead of a mode (see -list)")
		list       = flag.Bool("list", false, "list registered experiments and attack models, then exit")
		rounds     = flag.Int("rounds", 40, "mutuality: delegation rounds")
		theta      = flag.Float64("theta", 0.3, "mutuality: reverse-evaluation threshold")
		modelName  = flag.String("model", "aggressive", "transitivity: registered trust model (see -list); given explicitly, also restricts -experiment model-matrix to it")
		chars      = flag.Int("chars", 5, "transitivity: number of characteristics in the network")
		iters      = flag.Int("iters", 1000, "netprofit: iterations")
		strategy   = flag.String("strategy", "netprofit", "netprofit: successrate or netprofit")
		parallel   = flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS, 1 = serial); outputs are identical at any width")
		attack     = flag.String("attack", "", "adversary model: badmouth, ballot, selfpromo, onoff, whitewash (empty = none)")
		attackers  = flag.Int("attackers", 0, "attack ring size (trustees turned attackers)")
		collude    = flag.Bool("collude", false, "coordinate the attackers as a collusion ring")
	)
	flag.Parse()

	for _, err := range []error{
		cliutil.ValidateParallel(*parallel),
		cliutil.ValidatePositive("-rounds", *rounds),
		cliutil.ValidatePositive("-chars", *chars),
		cliutil.ValidatePositive("-iters", *iters),
		cliutil.ValidateAttackFlags(*attack, *attackers, *collude, *experiment),
	} {
		if err != nil {
			cliutil.Usage("siot-sim", err)
		}
	}

	if *list {
		fmt.Println("experiments:", experiments.Names())
		fmt.Println("attack models:", adversary.Names())
		fmt.Println("trust models:", core.ModelNames())
		return
	}

	if *experiment != "" {
		// The -model default picks the transitivity mode's model; only an
		// explicit -model restricts the model matrix.
		matrixModel := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "model" {
				matrixModel = *modelName
			}
		})
		res, err := experiments.RunOpts(*experiment, experiments.Options{
			Seed: *seed, Parallelism: *parallel,
			Attack: *attack, Attackers: *attackers, Collude: *collude,
			Model: matrixModel,
		})
		if err != nil {
			cliutil.Usage("siot-sim", err)
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			cliutil.Runtime("siot-sim", err)
		}
		if c, ok := res.(experiments.Charter); ok {
			for _, chart := range c.Charts() {
				fmt.Println()
				if err := chart.Render(os.Stdout); err != nil {
					cliutil.Runtime("siot-sim", err)
				}
			}
		}
		for _, e := range res.ShapeCheck() {
			fmt.Fprintln(os.Stderr, "shape check:", e)
		}
		return
	}

	model, err := adversary.Parse(*attack)
	if err != nil {
		cliutil.Usage("siot-sim", err)
	}
	if *collude && model != nil {
		model = adversary.Collusion{Of: model}
	}
	atkCfg := sim.AttackConfig{Model: model, Attackers: *attackers}
	if model != nil && *attackers == 0 {
		atkCfg.Attackers = 25 // a meaningful default ring for ad-hoc runs
	}

	profile, err := socialgen.ProfileByName(*netName)
	if err != nil {
		cliutil.Usage("siot-sim", err)
	}
	net := socialgen.Generate(profile, *seed)
	fmt.Printf("network %s: %d nodes, %d edges\n", profile.Name, net.Graph.NumNodes(), net.Graph.NumEdges())

	switch *mode {
	case "mutuality":
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Theta = *theta
		cfg.Parallelism = *parallel
		cfg.Attack = atkCfg
		p := sim.NewPopulation(net, cfg)
		eng := sim.NewEngine(p, "cli-mutuality")
		tk := task.Uniform(1, task.CharCompute)
		var c sim.MutualityCounters
		for i := 0; i < *rounds; i++ {
			eng.MutualityRound(i, tk, &c)
		}
		fmt.Printf("rounds=%d theta=%.2f\n", *rounds, *theta)
		fmt.Printf("success rate     %.3f\n", c.SuccessRate())
		fmt.Printf("unavailable rate %.3f\n", c.UnavailableRate())
		fmt.Printf("abuse rate       %.3f\n", c.AbuseRate())
		if p.AttackEnabled() {
			fmt.Printf("attack=%s attackers=%d\n", atkCfg.Model.Name(), len(p.Attackers))
			fmt.Printf("attacker delegation share %.3f\n",
				float64(c.AttackerDelegations)/float64(max(1, c.Requests-c.Unavailable)))
			honest, atk := eng.PerceivedTrust(*rounds-1, tk)
			fmt.Printf("trust gap (honest − attacker) %.3f\n", honest-atk)
		}

	case "transitivity":
		mdl, err := core.ParseModel(*modelName)
		if err != nil {
			cliutil.Usage("siot-sim", err)
		}
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Parallelism = *parallel
		p := sim.NewPopulation(net, cfg)
		r := rng.New(*seed, "cli-transitivity")
		setup := sim.DefaultTransitivitySetup(*chars, r)
		sim.SeedExperience(p, setup, *seed)
		st := sim.NewEngine(p, "cli-transitivity").TransitivityRunModel(setup, mdl, *seed)
		fmt.Printf("model=%s chars=%d\n", mdl.Name(), *chars)
		fmt.Printf("success rate       %.3f\n", st.SuccessRate())
		fmt.Printf("unavailable rate   %.3f\n", st.UnavailableRate())
		fmt.Printf("potential trustees %.2f\n", st.AvgPotentialTrustees())
		inq := make([]float64, len(st.InquiredPerTrustor))
		for i, v := range st.InquiredPerTrustor {
			inq[i] = float64(v)
		}
		fmt.Printf("inquired nodes     mean %.1f, p90 %.0f\n", stats.Mean(inq), stats.Quantile(inq, 0.9))

	case "netprofit":
		var strat sim.Strategy
		switch *strategy {
		case "successrate":
			strat = sim.StrategySuccessRate
		case "netprofit":
			strat = sim.StrategyNetProfit
		default:
			cliutil.Usage("siot-sim", fmt.Errorf("unknown strategy %q", *strategy))
		}
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Parallelism = *parallel
		p := sim.NewPopulation(net, cfg)
		series := sim.NewEngine(p, "cli-netprofit").NetProfitRun(*iters, strat, *seed)
		fmt.Printf("strategy=%s iters=%d\n", strat, *iters)
		fmt.Printf("initial profit (first 10%%)  %.3f\n", stats.Mean(series[:len(series)/10+1]))
		fmt.Printf("converged profit (last 33%%) %.3f\n", stats.Mean(series[len(series)*2/3:]))

	default:
		cliutil.Usage("siot-sim", fmt.Errorf("unknown mode %q", *mode))
	}
}
