(* The declarative scenario layer: s-expression parsing, spec
   round-trips, validation errors, grid expansion determinism, golden
   parity of spec-driven runs against hand-written Runner twins, and
   the statistical matrix gate. *)

module Net = Proteus_net
module Scn = Proteus_scenario
module Sexp = Scn.Sexp
module Spec = Scn.Spec
module Grid = Scn.Grid
module Gate = Scn.Gate

let parse_spec text =
  match Sexp.parse_string text with
  | Error e -> Alcotest.failf "sexp parse: %s" e
  | Ok [ form ] -> (
      match Spec.of_sexp form with
      | Ok s -> s
      | Error e -> Alcotest.failf "spec parse: %s" e)
  | Ok forms -> Alcotest.failf "expected one form, got %d" (List.length forms)

(* Case-insensitive substring test for error messages. *)
let mentions e needle =
  let lower = String.lowercase_ascii e in
  let nl = String.lowercase_ascii needle in
  let found = ref false in
  let n = String.length lower and m = String.length nl in
  for i = 0 to n - m do
    if String.sub lower i m = nl then found := true
  done;
  !found

let expect_spec_error text needle =
  match Sexp.parse_string text with
  | Error _ -> () (* lexical rejection counts too *)
  | Ok [ form ] -> (
      match Spec.of_sexp form with
      | Ok _ -> Alcotest.failf "expected error mentioning %S, spec parsed" needle
      | Error e ->
          if not (mentions e needle) then
            Alcotest.failf "error %S does not mention %S" e needle)
  | Ok _ -> Alcotest.fail "expected a single form"

(* ---------- sexp parser ---------- *)

let test_sexp_roundtrip () =
  let cases =
    [
      "(a b (c d) ())";
      "(atom-with-dash 1.5 -3 \"quoted string\" \"with \\\" escape\")";
      "(nested (deeply (x (y (z)))))";
    ]
  in
  List.iter
    (fun text ->
      match Sexp.parse_string text with
      | Error e -> Alcotest.failf "parse %S: %s" text e
      | Ok forms ->
          let printed = String.concat " " (List.map Sexp.to_string forms) in
          (match Sexp.parse_string printed with
          | Ok forms' when forms = forms' -> ()
          | Ok _ -> Alcotest.failf "round-trip changed %S" text
          | Error e -> Alcotest.failf "reparse %S: %s" printed e))
    cases

let test_sexp_comments_and_errors () =
  (match Sexp.parse_string "; just a comment\n(a b) ; trailing\n" with
  | Ok [ Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ] ] -> ()
  | _ -> Alcotest.fail "comment handling");
  (match Sexp.parse_string "(unclosed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unclosed list accepted");
  match Sexp.parse_string "(bad \"unterminated)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string accepted"

(* ---------- spec round-trip ---------- *)

let full_featured =
  {|
(scenario
  (name kitchen-sink)
  (duration 5)
  (measure-from 1.5)
  (topology (chain
    (link (bw-mbps 20) (rtt-ms 10) (buffer-bytes 150000)
      (loss (gilbert-elliott 0.01 0.3 0.001 0.2))
      (schedule (at 2 (set-bandwidth 10)) (at 3 (down 0.5 flush))))
    (link (bw-mbps 15) (rtt-ms 12) (buffer-bytes 120000)
      (noise (gaussian 4)) (reorder-prob 0.02) (reorder-extra-ms 6)
      (dup-prob 0.01))))
  (fluid (link 1) (buffer-share 0.5)
    (class (label bg) (flows 2) (responsiveness 0.7)
      (envelope (0 2) (2 8))))
  (flows
    (flow (cc cubic) (label a) (route e2e))
    (flow (cc proteus-s) (label b) (start 1) (stop 4) (route (hop 0)))
    (flow (cc blaster=5) (label c) (route rev) (size-mb 2.5)))
  (metrics (tput a) (mean-rtt a) (p95-rtt b) (loss c) (total-tput) (fairness)))
|}

let test_spec_roundtrip () =
  let s = parse_spec full_featured in
  let printed = Sexp.to_string (Spec.to_sexp s) in
  match Sexp.parse_string printed with
  | Ok [ form ] -> (
      match Spec.of_sexp form with
      | Ok s' when s = s' -> ()
      | Ok _ -> Alcotest.failf "round-trip changed the spec:\n%s" printed
      | Error e -> Alcotest.failf "reparse: %s" e)
  | _ -> Alcotest.fail "re-lex failed"

let test_spec_defaults () =
  let s =
    parse_spec
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (flows (flow (cc cubic))))|}
  in
  Alcotest.(check string) "default name" "scenario" s.Spec.name;
  Alcotest.(check (float 1e-9)) "measure-from = duration/3" 2.0 s.Spec.measure_from;
  Alcotest.(check string) "auto label" "f0" (List.hd s.Spec.flows).Spec.label;
  (* empty metrics clause falls back to per-flow tput/loss + total *)
  Alcotest.(check int) "default metrics" 3 (List.length s.Spec.metrics)

let test_validation_errors () =
  let dumbbell_flows flows =
    Printf.sprintf
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (flows %s))|}
      flows
  in
  expect_spec_error (dumbbell_flows "(flow (cc warp9))") "unknown protocol";
  expect_spec_error
    (dumbbell_flows "(flow (cc cubic) (label a)) (flow (cc bbr) (label a))")
    "duplicate";
  expect_spec_error
    (dumbbell_flows "(flow (cc cubic) (route (hop 0)))")
    "route";
  expect_spec_error
    (dumbbell_flows "(flow (cc cubic) (start -1))")
    "start";
  expect_spec_error
    {|(scenario (duration 6)
       (topology (chain (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic) (route (hop 3)))))|}
    "hop";
  expect_spec_error
    {|(scenario (duration 6)
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic) (label a)))
       (metrics (tput ghost)))|}
    "ghost";
  expect_spec_error
    {|(scenario (duration 6) (measure-from 6)
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic))))|}
    "measure-from";
  expect_spec_error
    (dumbbell_flows "(flow (cc $cc))")
    "template";
  expect_spec_error
    {|(scenario (duration 6)
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (fluid (link 2) (class (label bg) (envelope (0 1))))
       (flows (flow (cc cubic))))|}
    "link";
  (* A dumbbell is the one-hop chain: link 1 is its reverse link. *)
  let reverse_fluid =
    parse_spec
      {|(scenario (duration 2)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (fluid (link 1) (class (label bg) (envelope (0 1))))
         (flows (flow (cc cubic))))|}
  in
  ignore (Scn.Build.run_metrics ~seed:1 reverse_fluid);
  expect_spec_error (dumbbell_flows "(flow (cc cubic) (size-mb 1e300))")
    "2^62 bytes";
  expect_spec_error
    {|(scenario (duration 6)
       (topology (dumbbell (link (bw-mbps -5) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic))))|}
    "bandwidth";
  let with_noise n =
    Printf.sprintf
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000)
                                   (noise %s))))
         (flows (flow (cc cubic))))|}
      n
  in
  List.iter
    (fun n -> ignore (parse_spec (with_noise n)))
    [ "none"; "wifi"; "lte"; "(gaussian 0)"; "(gaussian 2)" ];
  List.iter
    (fun n -> expect_spec_error (with_noise n) "sigma_ms")
    [ "(gaussian nan)"; "(gaussian -1)"; "(gaussian inf)" ]

(* [Build.instantiate] truncates a flow's size to whole bytes; a size
   that truncates to 0 would be a flow that never completes. *)
let test_size_below_one_byte () =
  let with_size mb =
    Printf.sprintf
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (flows (flow (cc cubic) (size-mb %s))))|}
      mb
  in
  List.iter
    (fun mb -> expect_spec_error (with_size mb) "one byte")
    [ "1e-9"; "0.0000009" ];
  (* 1.5 bytes is a one-byte flow, and it completes. *)
  let r, flows = Scn.Build.instantiate ~seed:1 (parse_spec (with_size "0.0000015")) in
  Proteus_net.Runner.run r ~until:6.0;
  List.iter
    (fun (label, f) ->
      Alcotest.(check bool) (label ^ " complete") true
        (Proteus_net.Runner.is_complete f))
    flows

let test_metric_form_errors () =
  let with_metrics ?(flows = "(flow (cc cubic) (label a)) (flow (cc bbr) (label b))") ms =
    Printf.sprintf
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (flows %s)
         (metrics %s))|}
      flows ms
  in
  expect_spec_error (with_metrics "(tput a (window 5 7))") "window";
  expect_spec_error (with_metrics "(total-tput (window -1 2))") "window";
  expect_spec_error (with_metrics "(fairness (window 3 3))") "window";
  expect_spec_error (with_metrics "(mean-rtt a (window 4 2))") "window";
  expect_spec_error (with_metrics "(tput a (window 1.1 2))") "multiples";
  expect_spec_error
    (with_metrics "(recovery (pre 4 2) (after 5))") "window";
  expect_spec_error
    (with_metrics "(recovery (pre 1 2) (after 6))") "after";
  expect_spec_error (with_metrics "(harm ghost)") "ghost";
  expect_spec_error
    (with_metrics ~flows:"(flow (cc cubic) (label a))" "(harm a)")
    "another flow";
  expect_spec_error (with_metrics "(without ghost (tput a))") "unknown flow label";
  expect_spec_error
    {|(scenario (duration 6)
       (topology (parking-lot (hops 2) (cross cubic)
         (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic) (label a)))
       (metrics (without cross0 (tput a))))|}
    "parking-lot cross";
  expect_spec_error (with_metrics "(without a (tput a))") "the flow it removes";
  expect_spec_error (with_metrics "(without a (total-tput))") "per-flow metric";
  expect_spec_error (with_metrics "(without a (harm b))") "per-flow metric";
  expect_spec_error
    (with_metrics "(without a (without a (tput b)))") "does not nest";
  expect_spec_error (with_metrics "(without a (tput b (window 5 7)))") "window";
  (* windowed keys extend the unwindowed ones; the bare keys stay *)
  let s =
    parse_spec
      (with_metrics
         "(tput a) (tput a (window 1 2.5)) (fairness) (fairness (window 0 6)) \
          (total-loss) (recovery (pre 1 2) (after 3)) (harm b) \
          (without a (p95-rtt b (window 1 2))) (without b (loss a))")
  in
  Alcotest.(check (list string))
    "keys"
    [
      "tput:a"; "tput:a@1-2.5"; "fairness"; "fairness@0-6"; "total-loss";
      "recovery:1-2@3"; "recovered:1-2@3"; "harm:b";
      "without:a:p95-rtt:b@1-2"; "without:b:loss:a";
    ]
    (List.concat_map Spec.metric_keys s.Spec.metrics)

(* A link that is down from 2 s to the end never recovers: the
   recovery reads as censored at the end of the run, not as 0 s. *)
let test_recovery_censored () =
  let spec =
    parse_spec
      {|(scenario (duration 6)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000)
           (schedule (at 2 (down 4))))))
         (flows (flow (cc cubic) (label a)))
         (metrics (recovery (pre 1 2) (after 2))))|}
  in
  match Scn.Build.run_metrics ~seed:3 spec with
  | [ ("recovery:1-2@2", s); ("recovered:1-2@2", ok) ] ->
      Alcotest.(check (float 0.0)) "censored at the end" 4.0 s;
      Alcotest.(check (float 0.0)) "not recovered" 0.0 ok
  | ms ->
      Alcotest.failf "unexpected metrics %s"
        (String.concat " " (List.map fst ms))

(* The recovery bar is 0.8 x the pre-fault goodput: a link cut to just
   above 80% of its rate (16.1 of 20 Mbps) at 3 s recovers, one cut to
   just below (15.9) never does. The scan starts at 4 s, once every ACK
   left the bottleneck at the new rate: 0.25 s bins hold whole packets,
   so the saturated bins sit within 0.05 Mbps of it. *)
let test_recovery_threshold () =
  let recovered bw =
    let spec =
      parse_spec
        (Printf.sprintf
           {|(scenario (duration 8)
              (topology (dumbbell (link (bw-mbps 20) (rtt-ms 30) (buffer-bytes 150000)
                (schedule (at 3 (set-bandwidth %s))))))
              (flows (flow (cc cubic) (label a)))
              (metrics (recovery (pre 1 3) (after 4))))|}
           bw)
    in
    List.assoc "recovered:1-3@4" (Scn.Build.run_metrics ~seed:3 spec)
  in
  Alcotest.(check (float 0.0)) "16.1 Mbps recovers" 1.0 (recovered "16.1");
  Alcotest.(check (float 0.0)) "15.9 Mbps never does" 0.0 (recovered "15.9")

(* harm = max 0 (1 - mean_i (tput_i / base_i)) over the other flows,
   with base_i = 0 reading as no harm. *)
let test_harm_formula () =
  let spec =
    parse_spec
      {|(scenario (duration 4) (measure-from 1)
         (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
         (flows (flow (cc cubic) (label a)) (flow (cc cubic) (label b))
                (flow (cc copa) (label c)))
         (metrics (harm a)))|}
  in
  let r, flows = Scn.Build.instantiate ~seed:3 spec in
  Net.Runner.run r ~until:4.0;
  let tput l =
    Net.Flow_stats.throughput_mbps
      (Net.Runner.stats (List.assoc l flows))
      ~t0:1.0 ~t1:4.0
  in
  let harm base =
    List.assoc "harm:a"
      (Scn.Build.metric_values ~baselines:[ ("a", base) ] spec flows)
  in
  Alcotest.(check (float 0.0)) "halved and untouched" 0.25
    (harm [ ("tput:b", 2.0 *. tput "b"); ("tput:c", tput "c") ]);
  Alcotest.(check (float 0.0)) "gains clamp to 0" 0.0
    (harm [ ("tput:b", tput "b" /. 2.0); ("tput:c", tput "c") ]);
  Alcotest.(check (float 0.0)) "zero baseline reads as no harm" 0.0
    (harm [ ("tput:b", 0.0); ("tput:c", tput "c") ])

(* Every flow stops: the run must drain, and a run that cannot
   (flows stopping at the horizon) fails the quiescence check. *)
let test_stopped_spec_quiesces () =
  let spec stop =
    parse_spec
      (Printf.sprintf
         {|(scenario (duration 4)
            (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
            (flows (flow (cc cubic) (label a) (stop %s)) (flow (cc bbr) (label b) (stop %s))))|}
         stop stop)
  in
  ignore (Scn.Build.run_metrics ~seed:3 (spec "3") : (string * float) list);
  match Scn.Build.run_metrics ~seed:3 (spec "3.999") with
  | _ -> Alcotest.fail "in-flight packets at the horizon passed quiescence"
  | exception Net.Audit.Violation _ -> ()

(* ---------- grid expansion ---------- *)

let grid_text =
  {|
(scenario
  (name g)
  (duration 4)
  (grid (cc cubic bbr) (bw 10 20 30))
  (topology (dumbbell (link (bw-mbps $bw) (rtt-ms 30) (buffer-bytes 100000))))
  (flows (flow (cc $cc) (label a))))
|}

let load_grid text =
  match Sexp.parse_string text with
  | Ok [ form ] -> (
      match Grid.of_sexp form with
      | Ok t -> t
      | Error e -> Alcotest.failf "grid: %s" e)
  | _ -> Alcotest.fail "grid lex"

let test_grid_expansion_count () =
  let t = load_grid grid_text in
  Alcotest.(check int) "combos" 6 (List.length (Grid.combos t));
  match Grid.expand t ~trials:3 with
  | Error e -> Alcotest.failf "expand: %s" e
  | Ok insts ->
      Alcotest.(check int) "instances" 18 (List.length insts);
      let ids = List.map (fun (i : Grid.instance) -> i.id) insts in
      Alcotest.(check int) "unique ids" 18
        (List.length (List.sort_uniq String.compare ids));
      Alcotest.(check string) "first id" "g/cc=cubic,bw=10/t0" (List.hd ids)

let test_grid_determinism () =
  let t = load_grid grid_text in
  let e1 = Result.get_ok (Grid.expand t ~trials:2) in
  let e2 = Result.get_ok (Grid.expand t ~trials:2) in
  List.iter2
    (fun (a : Grid.instance) (b : Grid.instance) ->
      Alcotest.(check string) "id" a.id b.id;
      Alcotest.(check int) "seed" a.seed b.seed;
      if a.spec <> b.spec then Alcotest.fail "spec drifted")
    e1 e2;
  (* seeds are functions of the id alone: stable across processes and
     independent of sibling scenarios *)
  List.iter
    (fun (i : Grid.instance) ->
      Alcotest.(check int) "seed from id" (Grid.seed_of_id i.id) i.seed;
      if i.seed < 1 || i.seed > 1_000_000_000 then
        Alcotest.failf "seed %d out of range" i.seed)
    e1

let test_grid_errors () =
  let bad_dup =
    {|(scenario (duration 4) (grid (cc cubic) (cc bbr))
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc $cc))))|}
  in
  let bad_unref =
    {|(scenario (duration 4) (grid (ghost 1 2))
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows (flow (cc cubic))))|}
  in
  List.iter
    (fun text ->
      match Sexp.parse_string text with
      | Ok [ form ] -> (
          match Grid.of_sexp form with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "grid accepted: %s" text)
      | _ -> Alcotest.fail "lex")
    [ bad_dup; bad_unref ]

(* ---------- spec-driven run vs hand-written twin ---------- *)

let flow_fingerprint f =
  let st = Net.Runner.stats f in
  ( Net.Flow_stats.packets_sent st,
    Net.Flow_stats.packets_acked st,
    Net.Flow_stats.packets_lost st,
    Net.Flow_stats.bytes_acked st )

let check_fingerprint name a b =
  let (s1, a1, l1, b1) = a and (s2, a2, l2, b2) = b in
  if a <> b then
    Alcotest.failf "%s: (%d,%d,%d,%.0f) <> (%d,%d,%d,%.0f)" name s1 a1 l1 b1
      s2 a2 l2 b2

let test_golden_parity_dumbbell () =
  let spec =
    parse_spec
      {|(scenario (duration 5) (measure-from 2)
         (topology (dumbbell (link (bw-mbps 15) (rtt-ms 30) (buffer-bytes 120000))))
         (flows
           (flow (cc cubic) (label p))
           (flow (cc proteus-s) (label s) (start 1))))|}
  in
  let seed = 11 in
  let r_spec, flows = Scn.Build.instantiate ~seed spec in
  Net.Runner.run r_spec ~until:5.0;
  (* the twin, written the way bench experiments build the same run *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:15.0 ~rtt_ms:30.0 ~buffer_bytes:120_000 ()
  in
  let r_hand = Net.Runner.create ~seed cfg in
  let p =
    Net.Runner.add_flow r_hand ~label:"p" ~factory:(Proteus_cc.Cubic.factory ())
  in
  let s =
    Net.Runner.add_flow r_hand ~start:1.0 ~label:"s"
      ~factory:(Proteus.Presets.proteus_s ())
  in
  Net.Runner.run r_hand ~until:5.0;
  check_fingerprint "primary identical" (flow_fingerprint p)
    (flow_fingerprint (List.assoc "p" flows));
  check_fingerprint "scavenger identical" (flow_fingerprint s)
    (flow_fingerprint (List.assoc "s" flows))

let test_golden_parity_chain () =
  let spec =
    parse_spec
      {|(scenario (duration 5) (measure-from 2)
         (topology (chain
           (link (bw-mbps 20) (rtt-ms 10) (buffer-bytes 150000))
           (link (bw-mbps 15) (rtt-ms 10) (buffer-bytes 120000))))
         (flows
           (flow (cc cubic) (label e2e) (route e2e))
           (flow (cc bbr) (label short) (route (hop 1)) (start 1))))|}
  in
  let seed = 23 in
  let r_spec, flows = Scn.Build.instantiate ~seed spec in
  Net.Runner.run r_spec ~until:5.0;
  let links =
    [
      Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:10.0 ~buffer_bytes:150_000 ();
      Net.Link.config ~bandwidth_mbps:15.0 ~rtt_ms:10.0 ~buffer_bytes:120_000 ();
    ]
  in
  let topo = Net.Topology.chain links in
  let r_hand = Net.Runner.create_topo ~seed topo in
  let e2e =
    Net.Runner.add_flow r_hand
      ~route:(Net.Topology.chain_route topo)
      ~label:"e2e" ~factory:(Proteus_cc.Cubic.factory ())
  in
  let short =
    Net.Runner.add_flow r_hand ~start:1.0
      ~route:(Net.Topology.hop_route topo ~hop:1)
      ~label:"short" ~factory:(Proteus_cc.Bbr.factory ())
  in
  Net.Runner.run r_hand ~until:5.0;
  check_fingerprint "e2e identical" (flow_fingerprint e2e)
    (flow_fingerprint (List.assoc "e2e" flows));
  check_fingerprint "hop flow identical" (flow_fingerprint short)
    (flow_fingerprint (List.assoc "short" flows))

let test_run_metrics_deterministic () =
  let spec = parse_spec full_featured in
  let m1 = Scn.Build.run_metrics ~seed:5 spec in
  let m2 = Scn.Build.run_metrics ~seed:5 spec in
  Alcotest.(check int) "metric count" (List.length spec.Spec.metrics)
    (List.length m1);
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      Alcotest.(check string) "metric key" k1 k2;
      Alcotest.(check (float 0.0)) k1 v1 v2;
      if not (Float.is_finite v1) then Alcotest.failf "%s not finite" k1)
    m1 m2

(* Tuple entries bind every name from one row, enter the product as
   one axis, and keep a k=v id part per bound name. *)
let tuple_grid =
  {|(scenario (name g) (duration 4)
     (grid (cc cubic bbr) ((bw rtt) (10 30) (20 40) (15 25)))
     (topology (dumbbell (link (bw-mbps $bw) (rtt-ms $rtt) (buffer-bytes 100000))))
     (flows (flow (cc $cc) (label a))))|}

let test_grid_tuples () =
  let t = load_grid tuple_grid in
  let insts = Result.get_ok (Grid.expand t ~trials:1) in
  Alcotest.(check (list string))
    "ids"
    [
      "g/cc=cubic,bw=10,rtt=30/t0"; "g/cc=cubic,bw=20,rtt=40/t0";
      "g/cc=cubic,bw=15,rtt=25/t0"; "g/cc=bbr,bw=10,rtt=30/t0";
      "g/cc=bbr,bw=20,rtt=40/t0"; "g/cc=bbr,bw=15,rtt=25/t0";
    ]
    (List.map (fun (i : Grid.instance) -> i.id) insts);
  List.iter
    (fun (i : Grid.instance) ->
      match i.spec.Spec.topology with
      | Spec.Dumbbell c ->
          Alcotest.(check string)
            (i.id ^ " row bound together") i.combo
            (Printf.sprintf "cc=%s,bw=%g,rtt=%g"
               (List.hd i.spec.Spec.flows).Spec.cc c.Net.Link.bandwidth_mbps
               c.Net.Link.rtt_ms)
      | _ -> Alcotest.fail "dumbbell expected")
    insts;
  (* a tuple first: its rows vary slowest *)
  let t =
    load_grid
      {|(scenario (name h) (duration 4)
         (grid ((bw rtt) (10 30) (20 40)) (cc cubic bbr))
         (topology (dumbbell (link (bw-mbps $bw) (rtt-ms $rtt) (buffer-bytes 100000))))
         (flows (flow (cc $cc) (label a))))|}
  in
  Alcotest.(check (list string))
    "tuple-major ids"
    [ "bw=10,rtt=30,cc=cubic"; "bw=10,rtt=30,cc=bbr"; "bw=20,rtt=40,cc=cubic";
      "bw=20,rtt=40,cc=bbr" ]
    (List.map
       (fun (i : Grid.instance) -> i.combo)
       (Result.get_ok (Grid.expand t ~trials:1)))

let test_grid_tuple_errors () =
  let reject grid needle =
    let text =
      Printf.sprintf
        {|(scenario (duration 4) (grid %s)
           (topology (dumbbell (link (bw-mbps $bw) (rtt-ms $rtt) (buffer-bytes 100000))))
           (flows (flow (cc cubic))))|}
        grid
    in
    match Sexp.parse_string text with
    | Ok [ form ] -> (
        match Grid.of_sexp form with
        | Ok _ -> Alcotest.failf "grid accepted: %s" grid
        | Error e ->
            if not (mentions e needle) then
              Alcotest.failf "%s: error %S lacks %S" grid e needle)
    | _ -> Alcotest.fail "lex"
  in
  reject "((bw rtt) (10 30) (20))" "row of 2 values";
  reject "((bw rtt) (10 30 40))" "row of 2 values";
  reject "((bw rtt) 10)" "row of 2 values";
  reject "((bw bw) (10 20))" "duplicate parameter \"bw\"";
  reject "(bw 10) ((rtt bw) (1 2))" "duplicate parameter \"bw\"";
  reject "((bw rtt ghost) (10 30 1))" "\"ghost\" is never referenced";
  reject "(((bw) rtt) (10 30))" "tuple names must be atoms"

(* (replicate N [(every T)] FLOW) is N labelled copies, copy i started
   at START + i x T; the printed spec holds plain flows. *)
let replicate_spec flows =
  Printf.sprintf
    {|(scenario (duration 10)
       (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
       (flows %s))|}
    flows

let test_replicate () =
  let spec =
    parse_spec
      (replicate_spec
         "(replicate 4 (every 0.7) (flow (cc cubic) (label p) (start 0.1) \
          (stop 9.9))) (flow (cc bbr))")
  in
  let flows = spec.Spec.flows in
  Alcotest.(check (list string))
    "labels" [ "p0"; "p1"; "p2"; "p3"; "f4" ]
    (List.map (fun f -> f.Spec.label) flows);
  List.iteri
    (fun i f ->
      if i < 4 then begin
        let want = 0.1 +. (float_of_int i *. 0.7) in
        if Int64.bits_of_float f.Spec.start <> Int64.bits_of_float want then
          Alcotest.failf "p%d start %h <> %h" i f.Spec.start want;
        Alcotest.(check string) "cc copied" "cubic" f.Spec.cc;
        Alcotest.(check (option (float 0.0))) "stop copied" (Some 9.9) f.Spec.stop
      end)
    flows;
  (match Spec.of_sexp (Spec.to_sexp spec) with
  | Ok s when s = spec -> ()
  | Ok _ -> Alcotest.fail "to_sexp round trip drifted"
  | Error e -> Alcotest.failf "to_sexp round trip: %s" e);
  let none =
    parse_spec
      (replicate_spec
         "(replicate 0 (every 2) (flow (cc cubic) (label p))) (flow (cc bbr))")
  in
  Alcotest.(check (list string))
    "N = 0 adds no flow" [ "f0" ]
    (List.map (fun f -> f.Spec.label) none.Spec.flows);
  let plain =
    parse_spec (replicate_spec "(replicate 2 (flow (cc cubic) (label q)))")
  in
  Alcotest.(check (list (float 0.0)))
    "every defaults to 0" [ 0.0; 0.0 ]
    (List.map (fun f -> f.Spec.start) plain.Spec.flows);
  let reject flows needle = expect_spec_error (replicate_spec flows) needle in
  reject "(replicate -1 (flow (cc cubic) (label p)))" "count must be >= 0";
  reject "(replicate 2.5 (flow (cc cubic) (label p)))" "expected an integer";
  reject "(replicate two (flow (cc cubic) (label p)))" "expected an integer";
  reject "(replicate 2 (flow (cc cubic)))" "with a (label L)";
  reject "(replicate 2 (every x) (flow (cc cubic) (label p)))" "expected a number";
  reject "(replicate 2 (flow (cc cubic) (label p)) (flow (cc bbr)))"
    "expected (replicate N";
  reject "(flow (cc bbr) (label p1)) (replicate 2 (flow (cc cubic) (label p)))"
    "duplicate flow label \"p1\"";
  reject "(replicate 2 (flow (cc cubic) (label p))) (flow (cc bbr) (label p0))"
    "duplicate flow label \"p0\""

(* ---------- the ported fault and topology sweeps ---------- *)

(* The committed sweep specs, as the bench expands them. [dune test]
   runs from _build/default/test; a direct run, from the repo root. *)
let scenarios_dir =
  if Sys.file_exists "../scenarios/faults" then "../scenarios" else "scenarios"

let sweep_instance dir name combo =
  let path = Printf.sprintf "%s/%s/%s.scn" scenarios_dir dir name in
  match Grid.load_file path with
  | Error e -> Alcotest.failf "%s" e
  | Ok tmpl -> (
      match Grid.expand tmpl ~trials:1 with
      | Error e -> Alcotest.failf "%s" e
      | Ok insts -> (
          match List.find_opt (fun (i : Grid.instance) -> i.combo = combo) insts with
          | Some i -> i
          | None -> Alcotest.failf "%s has no %s instance" path combo))

(* Every pinned value of the hand-written runners, bit for bit. Each
   old field maps onto the prefix of the one metric key replacing it. *)
let check_pinned dir key_prefix (cells : Sweep_goldens.cell list) =
  List.iter
    (fun (c : Sweep_goldens.cell) ->
      let i = sweep_instance dir c.scenario ("cc=" ^ c.cc) in
      let ms = Scn.Build.run_metrics ~seed:i.seed i.spec in
      let find prefix =
        match
          List.filter (fun (k, _) -> String.starts_with ~prefix k) ms
        with
        | [ kv ] -> kv
        | kvs ->
            Alcotest.failf "%s: %d keys start with %s" i.id (List.length kvs)
              prefix
      in
      List.iter
        (fun (field, golden) ->
          let key, v = find (key_prefix field) in
          if Int64.bits_of_float v <> Int64.bits_of_float golden then
            Alcotest.failf "%s %s (was %s): %h <> pinned %h" i.id key field v
              golden)
        c.values;
      if dir = "faults" then
        Alcotest.(check (float 0.0))
          (i.id ^ " recovered") 1.0
          (snd (find "recovered:")))
    cells

let test_faults_pinned () =
  check_pinned "faults"
    (function
      | "prefault_mbps" -> "total-tput@3-8"
      | "postfault_mbps" -> "total-tput@13-18"
      | "recovery_s" -> "recovery:"
      | "fairness_jain" -> "fairness@13-18"
      | "loss_frac" -> "total-loss"
      | f -> Alcotest.failf "unmapped field %s" f)
    Sweep_goldens.faults

let test_topology_pinned () =
  List.iter
    (fun (scenario, flow) ->
      check_pinned "topology"
        (function
          | "tput_mbps" -> "tput:" ^ flow
          | "mean_rtt_ms" -> "mean-rtt:" ^ flow
          | "loss_frac" -> "loss:" ^ flow
          | "scavenger_harm" -> "harm:" ^ flow
          | f -> Alcotest.failf "unmapped field %s" f)
        (List.filter
           (fun (c : Sweep_goldens.cell) -> c.scenario = scenario)
           Sweep_goldens.topology))
    [ ("parking-lot", "e2e"); ("rev-path", "probe") ]

(* The rest of both corpora, the cells with randomness: every Proteus-P,
   Proteus-S and BBR instance at one trial, auditor on (run_metrics's
   default), so any invariant violation raises. Fault instances stop
   every flow, so they must also end quiesced, and recover; topology
   instances run their harm baseline too. *)
let test_corpus_audit () =
  List.iter
    (fun (dir, expect) ->
      let instances =
        Sys.readdir (Filename.concat scenarios_dir dir)
        |> Array.to_list
        |> List.filter_map (Filename.chop_suffix_opt ~suffix:".scn")
        |> List.sort compare
        |> List.concat_map (fun name ->
               List.map
                 (fun cc -> sweep_instance dir name ("cc=" ^ cc))
                 [ "proteus-p"; "proteus-s"; "bbr" ])
      in
      Alcotest.(check int) (dir ^ " instances") expect (List.length instances);
      List.iter
        (fun (i : Grid.instance) ->
          let ms = Scn.Build.run_metrics ~seed:i.seed i.spec in
          let value prefix =
            match
              List.find_opt (fun (k, _) -> String.starts_with ~prefix k) ms
            with
            | Some (_, v) -> v
            | None -> Alcotest.failf "%s: no %s metric" i.id prefix
          in
          if dir = "faults" then begin
            if
              List.exists (fun (f : Spec.flow) -> f.stop = None) i.spec.flows
            then Alcotest.failf "%s: a flow never stops" i.id;
            Alcotest.(check (float 0.0)) (i.id ^ " recovered") 1.0
              (value "recovered:")
          end
          else
            let harm = value "harm:" in
            if not (harm >= 0.0 && harm <= 1.0) then
              Alcotest.failf "%s: harm %g outside [0, 1]" i.id harm)
        instances)
    [ ("faults", 15); ("topology", 6) ]

(* Trace identity: in a traced run of the outage fault with two
   Proteus-P flows, each controller's decision, MI and utility events
   carry its runner flow index, and the outage's two "down" events (the
   dumbbell's forward and reverse links) carry their link ids. The run
   stops at 9 s, inside the default ring, so nothing wraps away. *)
let test_trace_identity () =
  let module Trace = Proteus_obs.Trace in
  let i = sweep_instance "faults" "outage" "cc=proteus-p" in
  let trace = Trace.create () in
  let r, _ = Scn.Build.instantiate ~trace ~seed:i.seed i.spec in
  Net.Runner.run r ~until:9.0;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped trace);
  let events = Trace.to_list trace in
  let flows_of kind =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) -> if e.kind = kind then Some e.flow else None)
         events)
  in
  List.iter
    (fun kind ->
      Alcotest.(check (list int))
        (Trace.kind_name kind ^ " flow indices")
        [ 0; 1 ] (flows_of kind))
    [ Trace.Rate_decision; Trace.Mi_boundary; Trace.Utility_sample ];
  let downs =
    List.filter
      (fun (e : Trace.event) -> e.kind = Trace.Impairment && e.note = "down")
      events
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "one t=8 down event per link"
    [ (8.0, 0); (8.0, 1) ]
    (List.sort compare
       (List.map (fun (e : Trace.event) -> (e.time, e.seq)) downs))

(* The paper figures' pinned cells, bit for bit. [field] maps each old
   value onto the metric key replacing it, whether the run without s
   reports it, and its unit scale (the old code kept RTTs in seconds);
   [derived] gives keys whose value follows from the pinned ones. *)
let check_paper_pinned ?(derived = fun _ -> []) figure field
    (cells : Sweep_goldens.paper_cell list) =
  List.iter
    (fun (c : Sweep_goldens.paper_cell) ->
      let i = sweep_instance "paper" figure c.combo in
      let ms = Scn.Build.run_metrics ~seed:i.seed i.spec in
      let alone =
        lazy (List.assoc "s" (Scn.Build.baselines ~seed:i.seed i.spec))
      in
      let check what key v want =
        if Int64.bits_of_float v <> Int64.bits_of_float want then
          Alcotest.failf "%s %s (was %s): %h <> pinned %h" i.id key what v want
      in
      List.iter
        (fun (name, golden) ->
          let key, in_alone, scale = field name in
          let run = if in_alone then Lazy.force alone else ms in
          check name key (List.assoc key run) (scale *. golden))
        c.values;
      List.iter
        (fun (key, want) -> check "derived" key (List.assoc key ms) want)
        (derived c.values))
    cells

let single_field = function
  | "tput_mbps" -> ("tput:f", false, 1.0)
  | "p95_rtt_s" -> ("p95-rtt:f", false, 1000.0)
  | f -> Alcotest.failf "unmapped field %s" f

let test_fig3_pinned () = check_paper_pinned "fig3" single_field Sweep_goldens.fig3
let test_fig4_pinned () = check_paper_pinned "fig4" single_field Sweep_goldens.fig4

(* Fig. 6's ratios are exp_fig6's: with / alone, a zero alone reading 0. *)
let test_fig6_pinned () =
  check_paper_pinned "fig6"
    (function
      | "with_tput" -> ("tput:p", false, 1.0)
      | "with_p95_s" -> ("p95-rtt:p", false, 1000.0)
      | "scav_tput" -> ("tput:s", false, 1.0)
      | "alone_tput" -> ("tput:p", true, 1.0)
      | "alone_p95_s" -> ("p95-rtt:p", true, 1000.0)
      | f -> Alcotest.failf "unmapped field %s" f)
    ~derived:(fun vs ->
      let g k = List.assoc k vs in
      [
        ("without:s:tput:p", g "with_tput" /. g "alone_tput");
        ( "without:s:p95-rtt:p",
          1000.0 *. g "with_p95_s" /. (1000.0 *. g "alone_p95_s") );
        ("total-tput", 0.0 +. g "with_tput" +. g "scav_tput");
      ])
    Sweep_goldens.fig6

let test_fig5_pinned () =
  check_paper_pinned "fig5"
    (function
      | "jain" -> ("fairness", false, 1.0)
      | f -> Alcotest.failf "unmapped field %s" f)
    Sweep_goldens.fig5

(* Fig. 8's ratio is pair_run's: with / alone. *)
let test_fig8_pinned () =
  check_paper_pinned "fig8"
    (function
      | "with_tput" -> ("tput:p", false, 1.0)
      | "scav_tput" -> ("tput:s", false, 1.0)
      | "alone_tput" -> ("tput:p", true, 1.0)
      | f -> Alcotest.failf "unmapped field %s" f)
    ~derived:(fun vs ->
      [ ("without:s:tput:p", List.assoc "with_tput" vs /. List.assoc "alone_tput" vs) ])
    Sweep_goldens.fig8

(* harm and every without on one label read one run without that
   label; a spec with neither form runs once. Runs are counted through
   the arm hook. *)
let test_shared_baseline () =
  let spec metrics =
    parse_spec
      (Printf.sprintf
         {|(scenario (duration 3) (measure-from 1)
            (topology (dumbbell (link (bw-mbps 10) (rtt-ms 30) (buffer-bytes 100000))))
            (flows (flow (cc cubic) (label p)) (flow (cc copa) (label s) (start 0.5)))
            (metrics %s))|}
         metrics)
  in
  let runs s =
    let n = ref 0 in
    let ms = Scn.Build.run_metrics ~arm:(fun _ -> incr n) ~seed:3 s in
    (!n, ms)
  in
  let shared =
    spec "(tput p) (harm s) (without s (tput p)) (without s (p95-rtt p (window 1 2)))"
  in
  let n, ms = runs shared in
  Alcotest.(check int) "main run + one baseline" 2 n;
  Alcotest.(check int) "two labels, two baselines" 3
    (fst (runs (spec "(harm s) (without p (tput s))")));
  Alcotest.(check int) "neither form runs once" 1
    (fst (runs (spec "(tput p) (tput s)")));
  (* the ratio divides by the baseline run's own value *)
  let base = List.assoc "s" (Scn.Build.baselines ~seed:3 shared) in
  Alcotest.(check (float 0.0)) "ratio over the baseline"
    (List.assoc "tput:p" ms /. List.assoc "tput:p" base)
    (List.assoc "without:s:tput:p" ms);
  let r, flows = Scn.Build.instantiate ~seed:3 shared in
  Net.Runner.run r ~until:3.0;
  Alcotest.(check (float 0.0)) "zero baseline reads 0" 0.0
    (List.assoc "without:s:tput:p"
       (Scn.Build.metric_values
          ~baselines:[ ("s", ("tput:p", 0.0) :: List.remove_assoc "tput:p" base) ]
          shared flows))

(* ---------- QCheck: generated valid specs run audit-clean ---------- *)

let gen_spec =
  let open QCheck.Gen in
  let gen_link =
    (float_range 5.0 25.0 >>= fun bw ->
     float_range 10.0 60.0 >>= fun rtt ->
     int_range 40_000 200_000 >>= fun buf ->
     float_range 0.0 0.02 >>= fun loss ->
     return
       (Net.Link.config ~loss_rate:loss ~bandwidth_mbps:bw ~rtt_ms:rtt
          ~buffer_bytes:buf ()))
  in
  let gen_cc =
    oneofl [ "cubic"; "bbr"; "copa"; "proteus-p"; "proteus-s"; "ledbat-100" ]
  in
  let gen_flow label =
    gen_cc >>= fun cc ->
    float_range 0.0 1.5 >>= fun start ->
    return
      {
        Spec.cc;
        label;
        start;
        stop = None;
        size_mb = None;
        route = Spec.E2e;
        dp = None;
      }
  in
  int_range 1 3 >>= fun n_flows ->
  let labels = List.filteri (fun i _ -> i < n_flows) [ "a"; "b"; "c" ] in
  flatten_l (List.map gen_flow labels) >>= fun flows ->
  oneof [ return `Dumbbell; return `Chain1; return `Chain2 ] >>= fun shape ->
  (match shape with
  | `Dumbbell -> gen_link >>= fun l -> return (Spec.Dumbbell l)
  | `Chain1 -> gen_link >>= fun l -> return (Spec.Chain [ l ])
  | `Chain2 ->
      gen_link >>= fun l1 ->
      gen_link >>= fun l2 -> return (Spec.Chain [ l1; l2 ]))
  >>= fun topology ->
  float_range 3.0 4.0 >>= fun duration ->
  let spec =
    {
      Spec.name = "gen";
      duration;
      measure_from = 1.0;
      topology;
      flows;
      fluids = [];
      metrics = [];
    }
  in
  (* Windows on 0.25 s bin edges inside [0, duration]. *)
  let last_bin = int_of_float (duration /. Spec.series_bin) in
  let gen_window =
    int_range 0 (last_bin - 1) >>= fun k0 ->
    int_range (k0 + 1) last_bin >>= fun k1 ->
    return
      {
        Spec.w_from = float_of_int k0 *. Spec.series_bin;
        w_to = float_of_int k1 *. Spec.series_bin;
      }
  in
  let some_label = oneofl labels in
  let gen_extra =
    frequency
      ([
         (2, some_label >>= fun l -> gen_window >>= fun w -> return (Spec.Tput (l, Some w)));
         (1, some_label >>= fun l -> gen_window >>= fun w -> return (Spec.Mean_rtt (l, Some w)));
         (1, some_label >>= fun l -> gen_window >>= fun w -> return (Spec.P95_rtt (l, Some w)));
         (1, gen_window >>= fun w -> return (Spec.Total_tput (Some w)));
         (1, gen_window >>= fun w -> return (Spec.Fairness (Some w)));
         (1, return Spec.Total_loss);
         ( 2,
           gen_window >>= fun pre ->
           float_range 0.0 (duration -. 0.01) >>= fun after ->
           return (Spec.Recovery { pre; after }) );
       ]
      @
      if n_flows >= 2 then
        [
          (2, some_label >>= fun l -> return (Spec.Harm l));
          ( 2,
            some_label >>= fun l ->
            oneofl (List.filter (( <> ) l) labels) >>= fun f ->
            oneof
              [
                return (Spec.Tput (f, None));
                (gen_window >|= fun w -> Spec.Tput (f, Some w));
                return (Spec.Mean_rtt (f, None));
                (gen_window >|= fun w -> Spec.P95_rtt (f, Some w));
                return (Spec.Loss f);
              ]
            >>= fun m -> return (Spec.Without (l, m)) );
        ]
      else [])
  in
  list_size (int_range 0 3) gen_extra >>= fun extra ->
  return { spec with Spec.metrics = Spec.default_metrics spec @ extra }

let prop_generated_spec_runs =
  QCheck.Test.make ~name:"generated spec round-trips and runs audit-clean"
    ~count:12
    (QCheck.make gen_spec
       ~print:(fun s -> Sexp.to_string (Spec.to_sexp s)))
    (fun spec ->
      (match Spec.validate spec with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
      (match Spec.of_sexp (Spec.to_sexp spec) with
      | Ok s when s = spec -> ()
      | Ok _ -> QCheck.Test.fail_reportf "round-trip changed spec"
      | Error e -> QCheck.Test.fail_reportf "reparse: %s" e);
      (* audit attached by default: a conservation violation raises *)
      let ms = Scn.Build.run_metrics ~seed:3 spec in
      List.map fst ms = List.concat_map Spec.metric_keys spec.Spec.metrics
      && List.for_all (fun (_, v) -> Float.is_finite v) ms)

(* ---------- the statistical gate ---------- *)

let row id metric mean sd trials =
  {
    Gate.id;
    metric;
    mean;
    sd;
    ci95 = (if trials > 1 then 1.96 *. sd /. sqrt (float_of_int trials) else 0.0);
    trials;
  }

let test_gate_tcrit () =
  Alcotest.(check (float 1e-3)) "df=4 alpha=.05" 2.776
    (Gate.t_crit ~alpha:0.05 ~df:4.0);
  Alcotest.(check (float 1e-3)) "df=4 alpha=.01" 4.604
    (Gate.t_crit ~alpha:0.01 ~df:4.0);
  (* finite df rounds down to the nearest row (conservative): huge but
     finite df uses the 120 row; only df = infinity reaches the z row *)
  Alcotest.(check (float 1e-3)) "df=1e9 alpha=.05" 1.980
    (Gate.t_crit ~alpha:0.05 ~df:1e9);
  Alcotest.(check (float 1e-3)) "df=inf alpha=.05" 1.960
    (Gate.t_crit ~alpha:0.05 ~df:infinity);
  (* conservative: fractional df rounds down *)
  Alcotest.(check (float 1e-3)) "df=4.9 = df 4" 4.604
    (Gate.t_crit ~alpha:0.01 ~df:4.9)

let test_gate_pass_and_regression () =
  let baseline = [ row "s/a" "tput" 10.0 0.3 5; row "s/a" "loss" 0.01 0.0 5 ] in
  (* identical candidate passes *)
  let v = Gate.compare_rows ~baseline ~candidate:baseline () in
  if not (Gate.passed v) then Alcotest.fail "self-compare failed";
  Alcotest.(check int) "compared" 2 v.Gate.compared;
  (* small shift within noise passes *)
  let near = [ row "s/a" "tput" 10.2 0.3 5; row "s/a" "loss" 0.01 0.0 5 ] in
  let v = Gate.compare_rows ~baseline ~candidate:near () in
  if not (Gate.passed v) then Alcotest.fail "within-noise shift flagged";
  (* big, significant shift fails: the synthetic regression *)
  let worse = [ row "s/a" "tput" 6.0 0.3 5; row "s/a" "loss" 0.01 0.0 5 ] in
  let v = Gate.compare_rows ~baseline ~candidate:worse () in
  (match v.Gate.regressions with
  | [ r ] ->
      Alcotest.(check string) "metric" "tput" r.Gate.r_base.Gate.metric;
      if r.Gate.delta >= 0.0 then Alcotest.fail "delta sign"
  | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  (* deterministic drift (sd=0) beyond tolerance also fails *)
  let det_drift = [ row "s/a" "tput" 10.0 0.3 5; row "s/a" "loss" 0.05 0.0 5 ] in
  let v = Gate.compare_rows ~baseline ~candidate:det_drift () in
  (match v.Gate.regressions with
  | [ r ] -> (
      match r.Gate.t_stat with
      | None -> ()
      | Some _ -> Alcotest.fail "expected deterministic verdict")
  | rs -> Alcotest.failf "expected 1 deterministic regression, got %d"
            (List.length rs));
  (* a noisy cell needs a big relative shift: huge sd absorbs it *)
  let noisy_base = [ row "s/b" "tput" 10.0 4.0 3 ] in
  let noisy_cand = [ row "s/b" "tput" 8.5 4.0 3 ] in
  let v = Gate.compare_rows ~baseline:noisy_base ~candidate:noisy_cand () in
  if not (Gate.passed v) then Alcotest.fail "noisy cell flagged"

let test_gate_shape_changes () =
  let baseline = [ row "s/a" "tput" 10.0 0.3 5; row "s/b" "tput" 5.0 0.3 5 ] in
  let candidate = [ row "s/a" "tput" 10.0 0.3 5; row "s/c" "tput" 5.0 0.3 5 ] in
  let v = Gate.compare_rows ~baseline ~candidate () in
  Alcotest.(check int) "missing" 1 (List.length v.Gate.missing);
  Alcotest.(check int) "added" 1 (List.length v.Gate.added);
  if Gate.passed v then Alcotest.fail "shape change passed"

let test_gate_parse_bench () =
  let path = Filename.temp_file "bench_matrix" ".json" in
  let oc = open_out path in
  output_string oc
    "{\n\
    \  \"schema\": \"pcc-proteus-bench-matrix/1\",\n\
    \  \"config\": {\"trials\": 3},\n\
    \  \"failed_runs\": [],\n\
    \  \"results\": [\n\
    \    {\"id\": \"s/cc=cubic\", \"metric\": \"tput:a\", \"mean\": 9.61, \
     \"sd\": 0.12, \"ci95\": 0.136, \"trials\": 3},\n\
    \    {\"id\": \"s/cc=bbr\", \"metric\": \"loss:a\", \"mean\": 0.01, \
     \"sd\": 0, \"ci95\": 0, \"trials\": 3}\n\
    \  ]\n}\n";
  close_out oc;
  (match Gate.parse_bench path with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok rows ->
      Alcotest.(check int) "rows" 2 (List.length rows);
      let r = List.hd rows in
      Alcotest.(check string) "id" "s/cc=cubic" r.Gate.id;
      Alcotest.(check string) "metric" "tput:a" r.Gate.metric;
      Alcotest.(check (float 1e-9)) "mean" 9.61 r.Gate.mean;
      Alcotest.(check int) "trials" 3 r.Gate.trials);
  Sys.remove path

let test_datapath_cc_form () =
  let src =
    "(scenario (name dp) (duration 6) (topology (dumbbell (link (bw-mbps 10) \
     (rtt-ms 40) (buffer-bytes 150000)))) (flows (flow (cc (datapath cubic-dp \
     (interval 0.5) (const ssthresh 200))) (label a)) (flow (cc (datapath \
     ledbat-dp (const target 0.025))) (label b))))"
  in
  let spec = parse_spec src in
  (match spec.Spec.flows with
  | [ a; b ] ->
      Alcotest.(check string) "cc a" "cubic-dp" a.Spec.cc;
      (match a.Spec.dp with
      | Some { Spec.dp_interval = Some i; dp_consts = [ ("ssthresh", v) ] } ->
          Alcotest.(check (float 0.0)) "interval" 0.5 i;
          Alcotest.(check (float 0.0)) "const" 200.0 v
      | _ -> Alcotest.fail "flow a: datapath overrides not parsed");
      (match b.Spec.dp with
      | Some { Spec.dp_interval = None; dp_consts = [ ("target", v) ] } ->
          Alcotest.(check (float 0.0)) "target" 0.025 v
      | _ -> Alcotest.fail "flow b: datapath overrides not parsed")
  | fs -> Alcotest.failf "expected 2 flows, got %d" (List.length fs));
  (* Canonical printing round-trips the datapath form. *)
  (match Spec.of_sexp (Spec.to_sexp spec) with
  | Ok t when t = spec -> ()
  | Ok _ -> Alcotest.fail "datapath form did not round-trip structurally"
  | Error e -> Alcotest.failf "round-trip: %s" e);
  (* Rejections: non-datapath protocol, unknown register, bad interval. *)
  let dp_src frag =
    Printf.sprintf
      "(scenario (name dp) (duration 6) (topology (dumbbell (link (bw-mbps \
       10) (rtt-ms 40) (buffer-bytes 150000)))) (flows (flow (cc %s) (label \
       a))))"
      frag
  in
  let reject frag msg =
    match Sexp.parse_string (dp_src frag) with
    | Error e -> Alcotest.failf "sexp: %s" e
    | Ok [ form ] -> (
        match Spec.of_sexp form with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "accepted %s (%s)" frag msg)
    | Ok _ -> Alcotest.fail "expected one form"
  in
  reject "(datapath cubic (interval 0.5))" "non-datapath protocol";
  reject "(datapath cubic-dp (const warp 1))" "unknown register";
  reject "(datapath cubic-dp (interval -1))" "negative interval";
  reject "(datapath)" "missing name";
  (* Values that keep a run sending at one simulated instant until an
     outside timeout kills it: a window that never fills, given
     directly or grown there in one ACK by a gain above 1 or a zero
     mtu. The message names the register. *)
  List.iter
    (fun (frag, reg) -> expect_spec_error (dp_src frag) reg)
    [
      ("(datapath cubic-dp (const cwnd inf))", "cwnd");
      ("(datapath cubic-dp (const cwnd 1e300))", "cwnd");
      ("(datapath ledbat-dp (const gain 1e300))", "gain");
      ("(datapath ledbat-dp (const mtu 0))", "mtu");
    ];
  (* An interval-only override is behaviour-neutral (CUBIC's handler
     ignores interval reports): the datapath form must run
     byte-identically to the plain name. Register consts like the
     ssthresh override above DO change behaviour, so strip them. *)
  let with_a dp =
    {
      spec with
      Spec.flows =
        List.map
          (fun f -> if f.Spec.label = "a" then { f with Spec.dp = dp } else f)
          spec.Spec.flows;
    }
  in
  let neutral =
    with_a (Some { Spec.dp_interval = Some 0.5; dp_consts = [] })
  in
  let m_dp = Scn.Build.run_metrics ~seed:5 neutral in
  let m_plain = Scn.Build.run_metrics ~seed:5 (with_a None) in
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      Alcotest.(check string) "metric key" k1 k2;
      Alcotest.(check (float 0.0)) k1 v1 v2)
    m_dp m_plain

let test_protocols_registry () =
  List.iter
    (fun name ->
      match Scn.Protocols.validate name with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    Scn.Protocols.known;
  (match Scn.Protocols.validate "blaster=12.5" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "blaster rejected: %s" e);
  (match Scn.Protocols.validate "blaster=-3" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative blaster accepted");
  match Scn.Protocols.validate "warp9" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown protocol accepted"

let qcheck = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("sexp round-trip", `Quick, test_sexp_roundtrip);
    ("sexp comments/errors", `Quick, test_sexp_comments_and_errors);
    ("spec round-trip", `Quick, test_spec_roundtrip);
    ("spec defaults", `Quick, test_spec_defaults);
    ("validation errors", `Quick, test_validation_errors);
    ("flow size below one byte", `Quick, test_size_below_one_byte);
    ("metric-form validation errors", `Quick, test_metric_form_errors);
    ("recovery never reached is censored", `Quick, test_recovery_censored);
    ("all-stopped spec must quiesce", `Quick, test_stopped_spec_quiesces);
    ("recovery bar is 0.8 of the pre window", `Quick, test_recovery_threshold);
    ("harm formula", `Quick, test_harm_formula);
    ("harm and without share one baseline", `Quick, test_shared_baseline);
    ("grid expansion count", `Quick, test_grid_expansion_count);
    ("grid determinism", `Quick, test_grid_determinism);
    ("grid errors", `Quick, test_grid_errors);
    ("grid tuple entries", `Quick, test_grid_tuples);
    ("grid tuple errors", `Quick, test_grid_tuple_errors);
    ("replicate flows", `Quick, test_replicate);
    ("golden parity: dumbbell twin", `Quick, test_golden_parity_dumbbell);
    ("golden parity: chain twin", `Quick, test_golden_parity_chain);
    ("run-metrics deterministic", `Slow, test_run_metrics_deterministic);
    ("gate t-table", `Quick, test_gate_tcrit);
    ("gate pass/regression", `Quick, test_gate_pass_and_regression);
    ("gate shape changes", `Quick, test_gate_shape_changes);
    ("gate parses bench rows", `Quick, test_gate_parse_bench);
    ("datapath cc form", `Quick, test_datapath_cc_form);
    ("protocol registry", `Quick, test_protocols_registry);
    ("ported fault sweep: pinned cells", `Slow, test_faults_pinned);
    ("ported topology sweep: pinned cells", `Slow, test_topology_pinned);
    ("fault and topology corpora: audited runs", `Slow, test_corpus_audit);
    ("trace identity: flow and link indices", `Quick, test_trace_identity);
    ("paper fig3: pinned cells", `Slow, test_fig3_pinned);
    ("paper fig4: pinned cells", `Slow, test_fig4_pinned);
    ("paper fig6/7: pinned cells", `Slow, test_fig6_pinned);
    ("paper fig5: pinned cells", `Slow, test_fig5_pinned);
    ("paper fig8: pinned cells", `Slow, test_fig8_pinned);
  ]
  @ qcheck [ prop_generated_spec_runs ]
