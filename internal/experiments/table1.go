package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
)

// table1Workload is one application category's representative transaction
// sequence. It reports completed operations through ops and calls done when
// finished.
type table1Workload func(f device.Fetcher, origin simnet.Addr, ops *int, done func())

// Table1 reproduces "Major mobile commerce applications": every category
// of Table 1 runs a representative workload end-to-end from a mobile
// station on the built MC system, and the table reports the category
// metadata with measured transaction counts and latency.
func Table1(seed int64, opts Options) *Result {
	res := newResult("Table 1", "Major mobile commerce applications",
		"category", "major applications", "clients", "ops", "avg latency")

	mc, err := core.BuildMC(core.MCConfig{
		Seed:    seed,
		CC:      opts.CC,
		Devices: []device.Profile{device.CompaqIPAQH3870, device.ToshibaE740},
	})
	if err != nil {
		res.Note("build failed: %v", err)
		return res
	}
	if err := apps.RegisterAll(mc.Host); err != nil {
		res.Note("register: %v", err)
		return res
	}
	fetch := &device.IModeFetcher{Client: mc.Clients[0].IMode}
	origin := mc.Host.Addr()

	workloads := []struct {
		svc apps.Service
		run table1Workload
	}{
		{apps.NewCommerce(), commerceWorkload},
		{apps.NewEducation(), educationWorkload},
		{apps.NewERP(), erpWorkload},
		{apps.NewEntertainment(), entertainmentWorkload},
		{apps.NewHealth(), healthWorkload},
		{apps.NewInventory(), inventoryWorkload},
		{apps.NewTraffic(), trafficWorkload},
		{apps.NewTravel(), travelWorkload},
	}

	// Run the categories sequentially on the shared system so their
	// latencies do not contend.
	type outcome struct {
		ops     int
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(workloads))
	var runNext func(i int)
	runNext = func(i int) {
		if i == len(workloads) {
			return
		}
		start := mc.Net.Sched.Now()
		workloads[i].run(fetch, origin, &outcomes[i].ops, func() {
			outcomes[i].elapsed = mc.Net.Sched.Now() - start
			runNext(i + 1)
		})
	}
	runNext(0)
	if err := mc.Net.Sched.RunFor(30 * time.Minute); err != nil {
		res.Note("run: %v", err)
	}

	totalOps := 0
	for i, w := range workloads {
		o := outcomes[i]
		avg := time.Duration(0)
		if o.ops > 0 {
			avg = o.elapsed / time.Duration(o.ops)
		}
		res.AddRow(w.svc.Category(), w.svc.Application(), w.svc.Clients(),
			fmt.Sprint(o.ops), fmtDur(avg))
		res.Set(w.svc.Category()+"/ops", float64(o.ops))
		res.Set(w.svc.Category()+"/avg_ms", float64(avg.Milliseconds()))
		totalOps += o.ops
	}
	res.Set("total_ops", float64(totalOps))
	res.Note("all eight Table 1 categories executed on one six-component MC system")
	return res
}

func commerceWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.CommerceClient{Fetcher: f, Origin: origin, Key: []byte("payment-demo-key")}
	c.OpenAccount("t1-payer", "Payer", 100_000, func(_ apps.AccountView, err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.OpenAccount("t1-shop", "Shop", 0, func(_ apps.AccountView, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			var pay func(i int)
			pay = func(i int) {
				if i == 5 {
					c.Balance("t1-shop", func(_ apps.AccountView, err error) {
						if err == nil {
							*ops++
						}
						done()
					})
					return
				}
				c.Pay(fmt.Sprintf("t1-o%d", i), "t1-payer", "t1-shop", 199, int64(i), func(_ apps.PayReceipt, err error) {
					if err == nil {
						*ops++
					}
					pay(i + 1)
				})
			}
			pay(0)
		})
	})
}

func educationWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.EducationClient{Fetcher: f, Origin: origin}
	c.Courses(func(_ []apps.Course, err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.Enroll("go101", "t1-student", func(_ apps.Course, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.Quiz("go101", func(_ apps.Quiz, err error) {
				if err != nil {
					done()
					return
				}
				*ops++
				c.SubmitQuiz("go101", "t1-student", []string{"yes", "no"}, func(_ apps.QuizResult, err error) {
					if err == nil {
						*ops++
					}
					done()
				})
			})
		})
	})
}

func erpWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.ERPClient{Fetcher: f, Origin: origin}
	c.Resources(func(_ []apps.Resource, err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.Allocate("truck", "t1-crew", 3, func(_ apps.Resource, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.Release("truck", "t1-crew", 3, func(_ apps.Resource, err error) {
				if err == nil {
					*ops++
				}
				done()
			})
		})
	})
}

func entertainmentWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.EntertainmentClient{Fetcher: f, Origin: origin}
	c.Catalog(func(_ []apps.MediaItem, err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.Download("game1", func(b []byte, err error) {
			if err == nil && apps.VerifyMediaContent(b) {
				*ops++
			}
			done()
		})
	})
}

func healthWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.HealthClient{Fetcher: f, Origin: origin}
	c.Login("dr-yang", "rounds", func(err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.Record("p-100", func(_ apps.PatientRecord, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.AddNote("p-100", "mobile round complete", func(_ apps.PatientRecord, err error) {
				if err == nil {
					*ops++
				}
				done()
			})
		})
	})
}

func inventoryWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.InventoryClient{Fetcher: f, Origin: origin}
	c.ReportPosition(apps.TrackUpdate{Courier: "t1-c1", X: 5, Y: 5}, func(err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.NewPackage("t1-p1", 20, 20, func(_ apps.PackageView, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.Dispatch("t1-p1", func(_ apps.DispatchReply, err error) {
				if err != nil {
					done()
					return
				}
				*ops++
				c.Where("t1-p1", func(_ apps.PackageView, err error) {
					if err == nil {
						*ops++
					}
					done()
				})
			})
		})
	})
}

func trafficWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.TrafficClient{Fetcher: f, Origin: origin}
	c.Report(apps.Advisory{CellX: 1, CellY: 0, Severity: 4, Message: "stall"}, func(_ apps.Advisory, err error) {
		if err != nil {
			done()
			return
		}
		*ops++
		c.Advisories(0, 0, 2, func(_ []apps.Advisory, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.Route(0, 0, 3, 0, func(_ apps.RouteReply, err error) {
				if err == nil {
					*ops++
				}
				done()
			})
		})
	})
}

func travelWorkload(f device.Fetcher, origin simnet.Addr, ops *int, done func()) {
	c := &apps.TravelClient{Fetcher: f, Origin: origin}
	c.Search("GSO", "ATL", func(its []apps.Itinerary, err error) {
		if err != nil || len(its) == 0 {
			done()
			return
		}
		*ops++
		c.Book(its[0].ID, "t1-traveller", func(tk apps.Ticket, err error) {
			if err != nil {
				done()
				return
			}
			*ops++
			c.Ticket(tk.ID, func(_ apps.Ticket, err error) {
				if err == nil {
					*ops++
				}
				done()
			})
		})
	})
}
