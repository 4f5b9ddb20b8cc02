// City dashboard: the Fig. 6 / Fig. 8 experience — air quality and
// traffic dashboards served over HTTP from live pipeline data, plus
// the Fig. 5 CO2-dynamics study printed to the terminal.
//
// Run with:
//
//	go run ./examples/citydashboard
//
// then open the printed URL (the server runs until interrupted).
package main

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/integrate"
	"repro/internal/tsdb"
)

func main() {
	sys, err := core.New(core.TrondheimConfig(21))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("running 7 simulated days to fill the dashboards ...")
	if _, err := sys.Run(7 * 24 * time.Hour); err != nil {
		log.Fatal(err)
	}

	// --- Fig. 5 study -------------------------------------------------
	co2 := seriesOf(sys, core.MetricCO2, core.ColocatedNodeID)
	feed := integrate.NewTrafficFeed(sys.Traffic)
	jam := feed.JamFactorSeries(sys.Start, sys.Now())
	temp := seriesOf(sys, core.MetricTemp, core.ColocatedNodeID)
	wind := windSeries(sys)

	aligned, err := integrate.Align([]integrate.TimeSeries{co2, jam, temp, wind}, time.Hour, integrate.MeanInBucket)
	if err != nil {
		log.Fatal(err)
	}
	aligned = integrate.DropNaN(aligned)
	study, err := analytics.StudyDynamics(aligned[0], aligned[1], aligned[2], aligned[3], 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCO2 dynamics vs traffic jam factor (Fig. 5):\n")
	fmt.Printf("  raw Pearson r = %+.3f, Spearman ρ = %+.3f → no apparent correlation: %v\n",
		study.PearsonR, study.SpearmanR, study.NoApparentCorrelation())
	fmt.Printf("  CO2 diurnal peak hour %02d:00, traffic peak hour %02d:00 (different patterns)\n",
		study.CO2Profile.PeakHour(), study.TrafficProfile.PeakHour())
	fmt.Printf("  R² traffic-only %.3f vs multi-factor %.3f — many factors at play\n",
		study.R2Traffic, study.R2Full)

	// --- dashboards (Fig. 6 / Fig. 8) ----------------------------------
	srv := dashboard.New(sys.DB, sys.Dataport)
	srv.SetNow(sys.Now)
	// The same five panels ctt-server shows on its wall display.
	for _, p := range dashboard.PilotPanels(7 * 24 * time.Hour) {
		if err := srv.AddPanel(p); err != nil {
			log.Fatal(err)
		}
	}
	addr, err := srv.Start("127.0.0.1:8080")
	if err != nil {
		// Fall back to an ephemeral port if 8080 is busy.
		addr, err = srv.Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
	}
	defer srv.Close()
	fmt.Printf("\ndashboards: http://%s/        (air quality + traffic, Fig. 6)\n", addr)
	fmt.Printf("wall view:  http://%s/wall    (network + data, Fig. 8)\n", addr)
	fmt.Printf("network:    http://%s/network.svg (Fig. 3)\n", addr)
	fmt.Println("\nserving until Ctrl-C ...")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func seriesOf(sys *core.System, metric, sensor string) integrate.TimeSeries {
	res, err := sys.DB.Execute(tsdb.Query{
		Metric:     metric,
		Tags:       map[string]string{"sensor": sensor},
		Start:      sys.Start.UnixMilli(),
		End:        sys.Now().UnixMilli(),
		Aggregator: tsdb.AggAvg,
	})
	if err != nil || len(res) == 0 {
		log.Fatalf("no %s data for %s: %v", metric, sensor, err)
	}
	ts := integrate.TimeSeries{Name: sensor + "." + metric}
	for _, p := range res[0].Points {
		ts.Samples = append(ts.Samples, integrate.Sample{Time: p.Time(), Value: p.Value})
	}
	return ts
}

// windSeries samples the weather model (the paper integrates weather
// as a covariate of the CO2 dynamics).
func windSeries(sys *core.System) integrate.TimeSeries {
	ts := integrate.TimeSeries{Name: "wind", Unit: "m/s"}
	for t := sys.Start; t.Before(sys.Now()); t = t.Add(time.Hour) {
		ts.Samples = append(ts.Samples, integrate.Sample{Time: t, Value: sys.Weather.At(t).WindSpeedMS})
	}
	return ts
}
