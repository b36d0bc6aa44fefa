package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
)

// This file holds the benchmark's own answer to every negotiation: the
// offer the paper's Section 5 rule picks, computed from the document's
// variants, the profile and the Section 7 tariff without the program's
// enumeration, classification, cache or commitment code. The serving
// server is never compared, because replicas tie.

// answer is the user-visible part of an offer: the QoS of each media kind
// and the total price.
type answer struct {
	video                                 qos.VideoQoS
	audio                                 qos.AudioQoS
	image                                 qos.ImageQoS
	text                                  qos.TextQoS
	hasVideo, hasAudio, hasImage, hasText bool
	cost                                  cost.Money
}

func (a answer) String() string {
	s := ""
	if a.hasVideo {
		s += qos.VideoSetting(a.video).String() + " "
	}
	if a.hasAudio {
		s += qos.AudioSetting(a.audio).String() + " "
	}
	if a.hasImage {
		s += qos.ImageSetting(a.image).String() + " "
	}
	if a.hasText {
		s += qos.TextSetting(a.text).String() + " "
	}
	return s + "at " + a.cost.String()
}

// answerOf reads the answer a negotiation result carries.
func answerOf(res protocol.NegotiationResult) (answer, error) {
	if res.Offer == nil {
		return answer{}, errors.New("reserved result carries no offer")
	}
	if res.Offer.Cost.MaxCost != res.Cost {
		return answer{}, fmt.Errorf("offer price %v differs from session cost %v", res.Offer.Cost.MaxCost, res.Cost)
	}
	a := answer{cost: res.Cost}
	if v := res.Offer.Video; v != nil {
		a.video, a.hasVideo = *v, true
	}
	if au := res.Offer.Audio; au != nil {
		a.audio, a.hasAudio = *au, true
	}
	if im := res.Offer.Image; im != nil {
		a.image, a.hasImage = *im, true
	}
	if t := res.Offer.Text; t != nil {
		a.text, a.hasText = *t, true
	}
	return a, nil
}

// expectation is what the §5 rule says about one document for a machine
// class and a profile.
type expectation struct {
	// first holds the offers ranked first for step 5 — the acceptable set
	// when it is not empty, every offer otherwise — that tie on SNS, OIF
	// and price; an idle substrate must commit one of them.
	first  map[answer]bool
	status core.NegotiationStatus
	// acceptable maps every offer of the document to whether it lies in
	// the acceptable set (SNS better than CONSTRAINT, price within the
	// binding budget); it is filled only when asked for.
	acceptable map[answer]bool
	// components is the number of monomedia: a reserved session holds one
	// CMFS stream per component, discrete media included.
	components int
}

// option is one distinct choice for one monomedia: replicas of a variant
// share their QoS and price, so they collapse into one option.
type option struct {
	setting qos.Setting
	price   cost.Money
}

// tariff is the Section 7 charge for a stream: the price per second of the
// throughput class the rate falls in, times the duration, rounded to the
// milli-dollar, plus the guaranteed-service markup.
func tariff(t *cost.Table, rate qos.BitRate, d time.Duration, g cost.Guarantee, markup int) cost.Money {
	price := int64(t.PricePerSecond(rate))
	c := cost.Money((price*int64(d) + int64(time.Second)/2) / int64(time.Second))
	if g == cost.Guaranteed && markup > 0 {
		c += c * cost.Money(markup) / 100
	}
	return c
}

// expect computes the §5 answer for a document. withAll also fills the
// acceptable map over the whole variant product.
func expect(doc media.Document, m client.Machine, u profile.UserProfile, p cost.Pricing, withAll bool) (expectation, error) {
	g := u.Desired.Cost.Guarantee
	opts := make([][]option, len(doc.Monomedia))
	for i, mono := range doc.Monomedia {
		seen := make(map[string]bool)
		for _, v := range mono.Variants {
			if v.Format == media.ScalableMPEG {
				return expectation{}, fmt.Errorf("%s: scalable variants are outside the benchmark's catalogs", doc.ID)
			}
			if !m.CanDecode(v) {
				continue
			}
			var o option
			o.setting = v.QoS
			if mono.Kind.Continuous() {
				rate := v.NetworkQoS().AvgBitRate
				o.price = tariff(p.Network, rate, mono.Duration, g, p.GuaranteedMarkupPercent) +
					tariff(p.Server, rate, mono.Duration, g, p.GuaranteedMarkupPercent)
			}
			key := fmt.Sprintf("%s|%d", o.setting, o.price)
			if !seen[key] {
				seen[key] = true
				opts[i] = append(opts[i], o)
			}
		}
		if len(opts[i]) == 0 {
			return expectation{}, fmt.Errorf("%s: no decodable variant of %s", doc.ID, mono.ID)
		}
	}

	e := expectation{first: make(map[answer]bool), components: len(doc.Monomedia)}
	if withAll {
		e.acceptable = make(map[answer]bool)
	}
	type rank struct {
		acceptable bool
		sns        int // 0 desirable, 1 acceptable, 2 constraint
		oif        float64
		cost       cost.Money
	}
	var best rank
	have := false
	pick := make([]option, len(opts))
	var walk func(i int)
	walk = func(i int) {
		if i < len(opts) {
			for _, o := range opts[i] {
				pick[i] = o
				walk(i + 1)
			}
			return
		}
		total := cost.Money(doc.CopyrightFee)
		meetsDesired, meetsWorst := true, true
		var q float64
		for _, o := range pick {
			total += o.price
			q += u.Importance.QoS(o.setting)
			kind, _ := o.setting.Kind()
			if des, ok := u.Desired.Setting(kind); ok && !o.setting.Satisfies(des) {
				meetsDesired = false
			}
			if wor, ok := u.Worst.Setting(kind); ok && !o.setting.Satisfies(wor) {
				meetsWorst = false
			}
		}
		r := rank{cost: total, oif: q - u.Importance.Cost(total), sns: 2}
		switch {
		case meetsDesired && total <= u.Desired.Cost.MaxCost:
			r.sns = 0
		case meetsWorst:
			r.sns = 1
		}
		r.acceptable = r.sns < 2 && total <= u.MaxCost()
		a := offerAnswer(pick, total)
		if withAll {
			e.acceptable[a] = r.acceptable
		}
		switch c := compareRank(r.acceptable, r.sns, r.oif, r.cost, best.acceptable, best.sns, best.oif, best.cost); {
		case !have || c < 0:
			best, have = r, true
			e.first = map[answer]bool{a: true}
		case c == 0:
			e.first[a] = true
		}
	}
	walk(0)
	e.status = core.FailedWithOffer
	if best.acceptable {
		e.status = core.Succeeded
	}
	return e, nil
}

// compareRank orders two offers the way step 5 tries them: the acceptable
// set first, then SNS, then OIF (higher first), then price (lower first).
// OIFs within a relative 1e-9 tie: they differ only by the order of
// floating-point additions.
func compareRank(accA bool, snsA int, oifA float64, costA cost.Money, accB bool, snsB int, oifB float64, costB cost.Money) int {
	switch {
	case accA != accB:
		if accA {
			return -1
		}
		return 1
	case snsA != snsB:
		return snsA - snsB
	case math.Abs(oifA-oifB) > 1e-9*math.Max(1, math.Abs(oifA)):
		if oifA > oifB {
			return -1
		}
		return 1
	case costA != costB:
		if costA < costB {
			return -1
		}
		return 1
	}
	return 0
}

// offerAnswer is the answer an offer with the given choices shows the user:
// the first setting of each media kind, as in a user offer.
func offerAnswer(pick []option, total cost.Money) answer {
	a := answer{cost: total}
	for _, o := range pick {
		s := o.setting
		switch {
		case s.Video != nil && !a.hasVideo:
			a.video, a.hasVideo = *s.Video, true
		case s.Audio != nil && !a.hasAudio:
			a.audio, a.hasAudio = *s.Audio, true
		case s.Image != nil && !a.hasImage:
			a.image, a.hasImage = *s.Image, true
		case s.Text != nil && !a.hasText:
			a.text, a.hasText = *s.Text, true
		}
	}
	return a
}

// checkIdle checks a negotiation on an idle substrate: the status and the
// offer's QoS and price must be the §5 rule's first choice.
func checkIdle(e expectation, res protocol.NegotiationResult) error {
	if res.Status != e.status {
		return fmt.Errorf("status %v, want %v", res.Status, e.status)
	}
	a, err := answerOf(res)
	if err != nil {
		return err
	}
	if !e.first[a] {
		return fmt.Errorf("offer %v is not the first choice of the §5 rule", a)
	}
	return nil
}

// checkHeld checks a negotiation on a loaded substrate: it must reserve
// one of the document's offers, with the status that offer earns.
func checkHeld(e expectation, res protocol.NegotiationResult) error {
	if !res.Status.Reserved() || res.Session == 0 {
		return fmt.Errorf("status %v reserved nothing (%s)", res.Status, res.Reason)
	}
	a, err := answerOf(res)
	if err != nil {
		return err
	}
	acc, ok := e.acceptable[a]
	if !ok {
		return fmt.Errorf("offer %v is not an offer of the document", a)
	}
	want := core.FailedWithOffer
	if acc {
		want = core.Succeeded
	}
	if res.Status != want {
		return fmt.Errorf("status %v for offer %v, want %v", res.Status, a, want)
	}
	return nil
}

// checkNoOvercommit checks that no CMFS server and no link carries more
// than its capacity.
func checkNoOvercommit(n *network.Network, servers []*cmfs.Server) error {
	if over := n.Overcommitted(); len(over) > 0 {
		return fmt.Errorf("%d network reservations cross an overcommitted link", len(over))
	}
	for _, s := range servers {
		if over := s.Overcommitted(); len(over) > 0 {
			return fmt.Errorf("server %s is overcommitted by %d streams", s.ID(), len(over))
		}
	}
	return nil
}

// checkStreams checks that the CMFS servers hold exactly the streams of the
// sessions the callers hold.
func checkStreams(servers []*cmfs.Server, want int) error {
	got := 0
	for _, s := range servers {
		got += s.ActiveStreams()
	}
	if got != want {
		return fmt.Errorf("servers hold %d streams, held sessions need %d", got, want)
	}
	return nil
}

// checkWindDown checks that nothing is left reserved once every session has
// ended: the ledger is empty, the network holds no reservation and no
// server holds a stream.
func checkWindDown(led *ledger.Ledger, n *network.Network, servers []*cmfs.Server) error {
	if err := led.CheckEmpty(); err != nil {
		return err
	}
	if k := n.ActiveReservations(); k != 0 {
		return fmt.Errorf("network holds %d reservations at wind-down", k)
	}
	return checkStreams(servers, 0)
}
