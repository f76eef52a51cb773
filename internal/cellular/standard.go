package cellular

import (
	"fmt"
	"strings"

	"mcommerce/internal/simnet"
)

// Generation labels a cellular technology generation (Table 5, column 1).
type Generation string

// Generations from Table 5.
const (
	Gen1  Generation = "1G"
	Gen2  Generation = "2G"
	Gen25 Generation = "2.5G"
	Gen3  Generation = "3G"
)

// RadioKind is Table 5's "radio channels" column.
type RadioKind string

// Radio channel kinds from Table 5.
const (
	// AnalogVoice is 1G: analog voice with digital control.
	AnalogVoice RadioKind = "Analog voice; Digital control"
	// Digital covers all 2G and later systems.
	Digital RadioKind = "Digital"
)

// Switching is Table 5's "switching technique" column.
type Switching string

// Switching techniques from Table 5.
const (
	CircuitSwitched Switching = "Circuit-switched"
	PacketSwitched  Switching = "Packet-switched"
)

// Standard describes one cellular standard of Table 5, augmented with the
// data rates given in the paper's prose (GPRS "about 100 kbps", EDGE
// "capable of supporting 384 kbps", W-CDMA "384Kbps or faster").
type Standard struct {
	Name       string
	Generation Generation
	Radio      RadioKind
	Switching  Switching
	// DataRate is the per-bearer data rate. Zero means the standard
	// carries no data at all (analog 1G), reproducing the paper's remark
	// that 1G systems "will not play a significant role in mobile
	// commerce systems".
	DataRate simnet.Rate
	// QoS reports whether the standard supports quality-of-service
	// classes (3G only).
	QoS bool
}

// SupportsData reports whether the standard can carry mobile commerce
// (data) traffic at all.
func (s Standard) SupportsData() bool { return s.DataRate > 0 }

// The nine standards of Table 5.
var (
	AMPS = Standard{Name: "AMPS", Generation: Gen1, Radio: AnalogVoice, Switching: CircuitSwitched}
	TACS = Standard{Name: "TACS", Generation: Gen1, Radio: AnalogVoice, Switching: CircuitSwitched}

	GSM  = Standard{Name: "GSM", Generation: Gen2, Radio: Digital, Switching: CircuitSwitched, DataRate: 9.6 * simnet.Kbps}
	TDMA = Standard{Name: "TDMA", Generation: Gen2, Radio: Digital, Switching: CircuitSwitched, DataRate: 9.6 * simnet.Kbps}
	CDMA = Standard{Name: "CDMA", Generation: Gen2, Radio: Digital, Switching: PacketSwitched, DataRate: 14.4 * simnet.Kbps}

	GPRS = Standard{Name: "GPRS", Generation: Gen25, Radio: Digital, Switching: PacketSwitched, DataRate: 100 * simnet.Kbps}
	EDGE = Standard{Name: "EDGE", Generation: Gen25, Radio: Digital, Switching: PacketSwitched, DataRate: 384 * simnet.Kbps}

	CDMA2000 = Standard{Name: "CDMA2000", Generation: Gen3, Radio: Digital, Switching: PacketSwitched, DataRate: 2 * simnet.Mbps, QoS: true}
	WCDMA    = Standard{Name: "WCDMA", Generation: Gen3, Radio: Digital, Switching: PacketSwitched, DataRate: 2 * simnet.Mbps, QoS: true}
)

// Standards returns the Table 5 rows in the paper's order. The slice is
// freshly allocated.
func Standards() []Standard {
	return []Standard{AMPS, TACS, GSM, TDMA, CDMA, GPRS, EDGE, CDMA2000, WCDMA}
}

// StandardByName resolves a command-line spelling of a Table 5 row: its
// Name, case-insensitively, or the alias "umts" for WCDMA.
func StandardByName(name string) (Standard, error) {
	if strings.EqualFold(name, "umts") {
		return WCDMA, nil
	}
	for _, std := range Standards() {
		if strings.EqualFold(std.Name, name) {
			return std, nil
		}
	}
	return Standard{}, fmt.Errorf("unknown cellular standard %q", name)
}

// QoSClass is a 3G traffic class, highest priority first. The classes are
// the standard UMTS set.
type QoSClass int

// UMTS QoS classes, from most to least latency-sensitive.
const (
	Conversational QoSClass = iota + 1
	Streaming
	Interactive
	Background
)

func (c QoSClass) String() string {
	switch c {
	case Conversational:
		return "conversational"
	case Streaming:
		return "streaming"
	case Interactive:
		return "interactive"
	case Background:
		return "background"
	default:
		return "unknown"
	}
}
