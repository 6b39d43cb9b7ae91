(* Typed scenario specs: s-expression parsing, canonical printing and
   validation. The structural work happens here; Build compiles a
   validated spec onto Topology/Runner. *)

module Link = Proteus_net.Link
module Noise = Proteus_net.Noise
module Aggregate = Proteus_net.Aggregate

type route = E2e | Hop of int | Rev

type dp_overrides = {
  dp_interval : float option;
  dp_consts : (string * float) list;
}

type flow = {
  cc : string;
  label : string;
  start : float;
  stop : float option;
  size_mb : float option;
  route : route;
  dp : dp_overrides option;
}

type fluid_class = {
  c_label : string;
  c_flows : int;
  c_responsiveness : float;
  c_envelope : (float * float) list;
}

type fluid = {
  f_link : int;
  f_buffer_share : float option;
  f_classes : fluid_class list;
}

type topology =
  | Dumbbell of Link.config
  | Chain of Link.config list
  | Parking_lot of { hops : int; link : Link.config; cross : string }

type window = { w_from : float; w_to : float }

type metric =
  | Tput of string * window option
  | Mean_rtt of string * window option
  | P95_rtt of string * window option
  | Loss of string
  | Total_tput of window option
  | Fairness of window option
  | Total_loss
  | Recovery of { pre : window; after : float }
  | Harm of string
  | Without of string * metric

type t = {
  name : string;
  duration : float;
  measure_from : float;
  topology : topology;
  flows : flow list;
  fluids : fluid list;
  metrics : metric list;
}

(* Width of the goodput bins windowed throughput and recovery read. *)
let series_bin = 0.25

(* ---------- small helpers ---------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let atom ctx = function
  | Sexp.Atom s ->
      if String.length s > 0 && s.[0] = '$' then
        bad "%s: unbound template variable %s (no matching grid entry)" ctx s
      else s
  | Sexp.List _ as l -> bad "%s: expected an atom, got %s" ctx (Sexp.to_string l)

let float_atom ctx s =
  let a = atom ctx s in
  match float_of_string_opt a with
  | Some v -> v
  | None -> bad "%s: expected a number, got %S" ctx a

let int_atom ctx s =
  let a = atom ctx s in
  match int_of_string_opt a with
  | Some v -> v
  | None -> bad "%s: expected an integer, got %S" ctx a

let ident_ok s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

(* Shortest float representation that still round-trips. *)
let fstr x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* ---------- link configs ---------- *)

let parse_loss_model ctx = function
  | Sexp.List [ Sexp.Atom "iid"; p ] -> Link.Iid (float_atom ctx p)
  | Sexp.List [ Sexp.Atom "gilbert-elliott"; a; b; c; d ] ->
      Link.Gilbert_elliott
        {
          p_good_bad = float_atom ctx a;
          p_bad_good = float_atom ctx b;
          loss_good = float_atom ctx c;
          loss_bad = float_atom ctx d;
        }
  | f ->
      bad "%s: expected (iid P) or (gilbert-elliott PGB PBG LG LB), got %s" ctx
        (Sexp.to_string f)

let print_loss_model = function
  | Link.Iid p -> Sexp.List [ Sexp.Atom "iid"; Sexp.Atom (fstr p) ]
  | Link.Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad } ->
      Sexp.List
        [
          Sexp.Atom "gilbert-elliott";
          Sexp.Atom (fstr p_good_bad);
          Sexp.Atom (fstr p_bad_good);
          Sexp.Atom (fstr loss_good);
          Sexp.Atom (fstr loss_bad);
        ]

let parse_noise ctx = function
  | Sexp.Atom "none" -> Noise.None_
  | Sexp.Atom "wifi" -> Noise.default_wifi
  | Sexp.Atom "lte" -> Noise.default_lte
  | Sexp.List [ Sexp.Atom "gaussian"; s ] ->
      Noise.Gaussian { sigma_ms = float_atom ctx s }
  | f ->
      bad "%s: expected none, wifi, lte or (gaussian SIGMA_MS), got %s" ctx
        (Sexp.to_string f)

(* Only the noise shapes the grammar can produce are printable; a
   programmatic spec carrying a hand-tuned Wifi/Lte record falls back
   to the named default it matches, or errors. *)
let print_noise = function
  | Noise.None_ -> Sexp.Atom "none"
  | Noise.Gaussian { sigma_ms } ->
      Sexp.List [ Sexp.Atom "gaussian"; Sexp.Atom (fstr sigma_ms) ]
  | n when n = Noise.default_wifi -> Sexp.Atom "wifi"
  | n when n = Noise.default_lte -> Sexp.Atom "lte"
  | _ -> bad "noise: only none/wifi/lte/gaussian specs are printable"

let parse_impairment ctx = function
  | Sexp.List [ Sexp.Atom "set-bandwidth"; x ] ->
      Link.Set_bandwidth (float_atom ctx x)
  | Sexp.List [ Sexp.Atom "set-rtt"; x ] -> Link.Set_rtt (float_atom ctx x)
  | Sexp.List [ Sexp.Atom "set-buffer"; x ] -> Link.Set_buffer (int_atom ctx x)
  | Sexp.List [ Sexp.Atom "set-loss"; m ] ->
      Link.Set_loss (parse_loss_model ctx m)
  | Sexp.List [ Sexp.Atom "down"; d ] ->
      Link.Down { duration = float_atom ctx d; flush = false }
  | Sexp.List [ Sexp.Atom "down"; d; Sexp.Atom "flush" ] ->
      Link.Down { duration = float_atom ctx d; flush = true }
  | f -> bad "%s: unknown impairment %s" ctx (Sexp.to_string f)

let print_impairment = function
  | Link.Set_bandwidth x ->
      Sexp.List [ Sexp.Atom "set-bandwidth"; Sexp.Atom (fstr x) ]
  | Link.Set_rtt x -> Sexp.List [ Sexp.Atom "set-rtt"; Sexp.Atom (fstr x) ]
  | Link.Set_buffer n ->
      Sexp.List [ Sexp.Atom "set-buffer"; Sexp.Atom (string_of_int n) ]
  | Link.Set_loss m -> Sexp.List [ Sexp.Atom "set-loss"; print_loss_model m ]
  | Link.Down { duration; flush } ->
      Sexp.List
        ((Sexp.Atom "down" :: Sexp.Atom (fstr duration) :: [])
        @ if flush then [ Sexp.Atom "flush" ] else [])

let parse_link form =
  match form with
  | Sexp.List (Sexp.Atom "link" :: clauses) ->
      let bw = ref None
      and rtt = ref None
      and buffer = ref None
      and loss_rate = ref None
      and loss = ref None
      and noise = ref None
      and schedule = ref []
      and reorder_prob = ref None
      and reorder_extra = ref None
      and dup_prob = ref None in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List [ Sexp.Atom "bw-mbps"; x ] ->
              bw := Some (float_atom "bw-mbps" x)
          | Sexp.List [ Sexp.Atom "rtt-ms"; x ] ->
              rtt := Some (float_atom "rtt-ms" x)
          | Sexp.List [ Sexp.Atom "buffer-bytes"; x ] ->
              buffer := Some (int_atom "buffer-bytes" x)
          | Sexp.List [ Sexp.Atom "loss-rate"; x ] ->
              loss_rate := Some (float_atom "loss-rate" x)
          | Sexp.List [ Sexp.Atom "loss"; m ] ->
              loss := Some (parse_loss_model "loss" m)
          | Sexp.List [ Sexp.Atom "noise"; n ] ->
              noise := Some (parse_noise "noise" n)
          | Sexp.List [ Sexp.Atom "reorder-prob"; x ] ->
              reorder_prob := Some (float_atom "reorder-prob" x)
          | Sexp.List [ Sexp.Atom "reorder-extra-ms"; x ] ->
              reorder_extra := Some (float_atom "reorder-extra-ms" x)
          | Sexp.List [ Sexp.Atom "dup-prob"; x ] ->
              dup_prob := Some (float_atom "dup-prob" x)
          | Sexp.List (Sexp.Atom "schedule" :: steps) ->
              schedule :=
                List.map
                  (function
                    | Sexp.List [ Sexp.Atom "at"; t; imp ] ->
                        (float_atom "schedule at" t, parse_impairment "schedule" imp)
                    | f -> bad "schedule: expected (at T IMPAIRMENT), got %s" (Sexp.to_string f))
                  steps
          | f -> bad "link: unknown clause %s" (Sexp.to_string f))
        clauses;
      let req name = function
        | Some v -> v
        | None -> bad "link: missing (%s ...)" name
      in
      (try
         Link.config
           ?loss_rate:!loss_rate ?loss:!loss ?noise:!noise
           ~schedule:!schedule ?reorder_prob:!reorder_prob
           ?reorder_extra_ms:!reorder_extra ?dup_prob:!dup_prob
           ~bandwidth_mbps:(req "bw-mbps" !bw)
           ~rtt_ms:(req "rtt-ms" !rtt)
           ~buffer_bytes:(req "buffer-bytes" !buffer)
           ()
       with Invalid_argument m -> bad "link: %s" m)
  | f -> bad "expected (link ...), got %s" (Sexp.to_string f)

let print_link (cfg : Link.config) =
  let clauses =
    [
      Sexp.List [ Sexp.Atom "bw-mbps"; Sexp.Atom (fstr cfg.bandwidth_mbps) ];
      Sexp.List [ Sexp.Atom "rtt-ms"; Sexp.Atom (fstr cfg.rtt_ms) ];
      Sexp.List
        [ Sexp.Atom "buffer-bytes"; Sexp.Atom (string_of_int cfg.buffer_bytes) ];
    ]
    @ (if cfg.loss_rate <> 0.0 then
         [ Sexp.List [ Sexp.Atom "loss-rate"; Sexp.Atom (fstr cfg.loss_rate) ] ]
       else [])
    @ (match cfg.loss with
      | Some m -> [ Sexp.List [ Sexp.Atom "loss"; print_loss_model m ] ]
      | None -> [])
    @ (if cfg.noise <> Noise.None_ then
         [ Sexp.List [ Sexp.Atom "noise"; print_noise cfg.noise ] ]
       else [])
    @ (if cfg.reorder_prob <> 0.0 then
         [
           Sexp.List
             [ Sexp.Atom "reorder-prob"; Sexp.Atom (fstr cfg.reorder_prob) ];
         ]
       else [])
    @ (if cfg.reorder_extra_ms <> 5.0 then
         [
           Sexp.List
             [
               Sexp.Atom "reorder-extra-ms";
               Sexp.Atom (fstr cfg.reorder_extra_ms);
             ];
         ]
       else [])
    @ (if cfg.dup_prob <> 0.0 then
         [ Sexp.List [ Sexp.Atom "dup-prob"; Sexp.Atom (fstr cfg.dup_prob) ] ]
       else [])
    @
    match cfg.schedule with
    | [] -> []
    | steps ->
        [
          Sexp.List
            (Sexp.Atom "schedule"
            :: List.map
                 (fun (t, imp) ->
                   Sexp.List
                     [ Sexp.Atom "at"; Sexp.Atom (fstr t); print_impairment imp ])
                 steps);
        ]
  in
  Sexp.List (Sexp.Atom "link" :: clauses)

(* ---------- flows ---------- *)

let parse_route = function
  | Sexp.Atom "e2e" -> E2e
  | Sexp.Atom "rev" -> Rev
  | Sexp.List [ Sexp.Atom "hop"; n ] -> Hop (int_atom "route hop" n)
  | f -> bad "route: expected e2e, rev or (hop N), got %s" (Sexp.to_string f)

let print_route = function
  | E2e -> Sexp.Atom "e2e"
  | Rev -> Sexp.Atom "rev"
  | Hop n -> Sexp.List [ Sexp.Atom "hop"; Sexp.Atom (string_of_int n) ]

let parse_datapath_cc clauses =
  let interval = ref None
  and consts = ref [] in
  List.iter
    (fun clause ->
      match clause with
      | Sexp.List [ Sexp.Atom "interval"; t ] ->
          interval := Some (float_atom "datapath interval" t)
      | Sexp.List [ Sexp.Atom "const"; r; v ] ->
          consts :=
            (atom "datapath const" r, float_atom "datapath const" v) :: !consts
      | f -> bad "datapath: unknown clause %s" (Sexp.to_string f))
    clauses;
  { dp_interval = !interval; dp_consts = List.rev !consts }

let parse_flow idx form =
  match form with
  | Sexp.List (Sexp.Atom "flow" :: clauses) ->
      let cc = ref None
      and dp = ref None
      and label = ref None
      and start = ref 0.0
      and stop = ref None
      and size_mb = ref None
      and route = ref E2e in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List
              [ Sexp.Atom "cc"; Sexp.List (Sexp.Atom "datapath" :: rest) ] -> (
              match rest with
              | name :: overrides ->
                  cc := Some (atom "datapath" name);
                  dp := Some (parse_datapath_cc overrides)
              | [] -> bad "datapath: missing protocol name")
          | Sexp.List [ Sexp.Atom "cc"; c ] -> cc := Some (atom "cc" c)
          | Sexp.List [ Sexp.Atom "label"; l ] -> label := Some (atom "label" l)
          | Sexp.List [ Sexp.Atom "start"; t ] -> start := float_atom "start" t
          | Sexp.List [ Sexp.Atom "stop"; t ] ->
              stop := Some (float_atom "stop" t)
          | Sexp.List [ Sexp.Atom "size-mb"; x ] ->
              size_mb := Some (float_atom "size-mb" x)
          | Sexp.List [ Sexp.Atom "route"; r ] -> route := parse_route r
          | f -> bad "flow: unknown clause %s" (Sexp.to_string f))
        clauses;
      let cc = match !cc with Some c -> c | None -> bad "flow: missing (cc NAME)" in
      {
        cc;
        label = (match !label with Some l -> l | None -> Printf.sprintf "f%d" idx);
        start = !start;
        stop = !stop;
        size_mb = !size_mb;
        route = !route;
        dp = !dp;
      }
  | f -> bad "flows: expected (flow ...), got %s" (Sexp.to_string f)

(* (replicate N [(every T)] FLOW): N copies of one labelled flow, copy
   i labelled Li and started at START + i x T. Default labels count
   expanded flows, so a flow after a replicate never reuses a copy's. *)
let parse_flows forms =
  let idx = ref 0 in
  List.concat_map
    (function
      | Sexp.List (Sexp.Atom "replicate" :: count :: rest) as form ->
          let n = int_atom "replicate count" count in
          if n < 0 then bad "replicate: count must be >= 0, got %d" n;
          let every, flow =
            match rest with
            | [ flow ] -> (0.0, flow)
            | [ Sexp.List [ Sexp.Atom "every"; t ]; flow ] ->
                (float_atom "replicate every" t, flow)
            | _ ->
                bad "replicate: expected (replicate N [(every T)] FLOW), got %s"
                  (Sexp.to_string form)
          in
          (match flow with
          | Sexp.List (Sexp.Atom "flow" :: clauses)
            when List.exists
                   (function
                     | Sexp.List [ Sexp.Atom "label"; _ ] -> true | _ -> false)
                   clauses ->
              ()
          | _ -> bad "replicate: expected a (flow ...) with a (label L)");
          let f = parse_flow 0 flow in
          idx := !idx + n;
          List.init n (fun i ->
              {
                f with
                label = f.label ^ string_of_int i;
                start = f.start +. (float_of_int i *. every);
              })
      | form ->
          let f = parse_flow !idx form in
          incr idx;
          [ f ])
    forms

let print_cc f =
  match f.dp with
  | None -> Sexp.Atom f.cc
  | Some d ->
      Sexp.List
        ((Sexp.Atom "datapath" :: Sexp.Atom f.cc
          ::
          (match d.dp_interval with
          | Some t -> [ Sexp.List [ Sexp.Atom "interval"; Sexp.Atom (fstr t) ] ]
          | None -> []))
        @ List.map
            (fun (r, v) ->
              Sexp.List [ Sexp.Atom "const"; Sexp.Atom r; Sexp.Atom (fstr v) ])
            d.dp_consts)

let print_flow f =
  Sexp.List
    ([
       Sexp.Atom "flow";
       Sexp.List [ Sexp.Atom "cc"; print_cc f ];
       Sexp.List [ Sexp.Atom "label"; Sexp.Atom f.label ];
     ]
    @ (if f.start <> 0.0 then
         [ Sexp.List [ Sexp.Atom "start"; Sexp.Atom (fstr f.start) ] ]
       else [])
    @ (match f.stop with
      | Some t -> [ Sexp.List [ Sexp.Atom "stop"; Sexp.Atom (fstr t) ] ]
      | None -> [])
    @ (match f.size_mb with
      | Some x -> [ Sexp.List [ Sexp.Atom "size-mb"; Sexp.Atom (fstr x) ] ]
      | None -> [])
    @
    match f.route with
    | E2e -> []
    | r -> [ Sexp.List [ Sexp.Atom "route"; print_route r ] ])

(* ---------- fluid ---------- *)

let parse_class form =
  match form with
  | Sexp.List (Sexp.Atom "class" :: clauses) ->
      let label = ref None
      and flows = ref 1
      and resp = ref 0.0
      and env = ref None in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List [ Sexp.Atom "label"; l ] -> label := Some (atom "class label" l)
          | Sexp.List [ Sexp.Atom "flows"; n ] -> flows := int_atom "class flows" n
          | Sexp.List [ Sexp.Atom "responsiveness"; r ] ->
              resp := float_atom "responsiveness" r
          | Sexp.List (Sexp.Atom "envelope" :: segs) ->
              env :=
                Some
                  (List.map
                     (function
                       | Sexp.List [ t; r ] ->
                           (float_atom "envelope" t, float_atom "envelope" r)
                       | f ->
                           bad "envelope: expected (FROM_S RATE_MBPS), got %s"
                             (Sexp.to_string f))
                     segs)
          | f -> bad "class: unknown clause %s" (Sexp.to_string f))
        clauses;
      {
        c_label =
          (match !label with Some l -> l | None -> bad "class: missing (label L)");
        c_flows = !flows;
        c_responsiveness = !resp;
        c_envelope =
          (match !env with
          | Some e -> e
          | None -> bad "class: missing (envelope ...)");
      }
  | f -> bad "fluid: expected (class ...), got %s" (Sexp.to_string f)

let print_class c =
  Sexp.List
    ([
       Sexp.Atom "class";
       Sexp.List [ Sexp.Atom "label"; Sexp.Atom c.c_label ];
     ]
    @ (if c.c_flows <> 1 then
         [ Sexp.List [ Sexp.Atom "flows"; Sexp.Atom (string_of_int c.c_flows) ] ]
       else [])
    @ (if c.c_responsiveness <> 0.0 then
         [
           Sexp.List
             [
               Sexp.Atom "responsiveness"; Sexp.Atom (fstr c.c_responsiveness);
             ];
         ]
       else [])
    @ [
        Sexp.List
          (Sexp.Atom "envelope"
          :: List.map
               (fun (t, r) ->
                 Sexp.List [ Sexp.Atom (fstr t); Sexp.Atom (fstr r) ])
               c.c_envelope);
      ])

let parse_fluid form =
  match form with
  | Sexp.List (Sexp.Atom "fluid" :: clauses) ->
      let link = ref None
      and share = ref None
      and classes = ref [] in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List [ Sexp.Atom "link"; i ] ->
              link := Some (int_atom "fluid link" i)
          | Sexp.List [ Sexp.Atom "buffer-share"; s ] ->
              share := Some (float_atom "buffer-share" s)
          | Sexp.List (Sexp.Atom "class" :: _) as c ->
              classes := parse_class c :: !classes
          | f -> bad "fluid: unknown clause %s" (Sexp.to_string f))
        clauses;
      {
        f_link =
          (match !link with Some i -> i | None -> bad "fluid: missing (link I)");
        f_buffer_share = !share;
        f_classes = List.rev !classes;
      }
  | f -> bad "expected (fluid ...), got %s" (Sexp.to_string f)

let print_fluid fl =
  Sexp.List
    ([
       Sexp.Atom "fluid";
       Sexp.List [ Sexp.Atom "link"; Sexp.Atom (string_of_int fl.f_link) ];
     ]
    @ (match fl.f_buffer_share with
      | Some s -> [ Sexp.List [ Sexp.Atom "buffer-share"; Sexp.Atom (fstr s) ] ]
      | None -> [])
    @ List.map print_class fl.f_classes)

(* ---------- metrics ---------- *)

let parse_window ctx = function
  | [ a; b ] -> { w_from = float_atom ctx a; w_to = float_atom ctx b }
  | _ -> bad "%s: expected two times T0 T1" ctx

let parse_opt_window ctx = function
  | [] -> None
  | [ Sexp.List (Sexp.Atom "window" :: ts) ] -> Some (parse_window ctx ts)
  | f :: _ -> bad "%s: expected (window T0 T1), got %s" ctx (Sexp.to_string f)

let rec parse_metric = function
  | Sexp.List (Sexp.Atom "tput" :: l :: w) ->
      Tput (atom "tput" l, parse_opt_window "tput" w)
  | Sexp.List (Sexp.Atom "mean-rtt" :: l :: w) ->
      Mean_rtt (atom "mean-rtt" l, parse_opt_window "mean-rtt" w)
  | Sexp.List (Sexp.Atom "p95-rtt" :: l :: w) ->
      P95_rtt (atom "p95-rtt" l, parse_opt_window "p95-rtt" w)
  | Sexp.List [ Sexp.Atom "loss"; l ] -> Loss (atom "loss" l)
  | Sexp.List (Sexp.Atom "total-tput" :: w) ->
      Total_tput (parse_opt_window "total-tput" w)
  | Sexp.Atom "total-tput" -> Total_tput None
  | Sexp.List (Sexp.Atom "fairness" :: w) ->
      Fairness (parse_opt_window "fairness" w)
  | Sexp.Atom "fairness" -> Fairness None
  | Sexp.List [ Sexp.Atom "total-loss" ] | Sexp.Atom "total-loss" -> Total_loss
  | Sexp.List
      [
        Sexp.Atom "recovery";
        Sexp.List (Sexp.Atom "pre" :: pre);
        Sexp.List [ Sexp.Atom "after"; t ];
      ] ->
      Recovery
        { pre = parse_window "recovery pre" pre; after = float_atom "after" t }
  | Sexp.List [ Sexp.Atom "harm"; l ] -> Harm (atom "harm" l)
  | Sexp.List [ Sexp.Atom "without"; l; m ] ->
      Without (atom "without" l, parse_metric m)
  | f -> bad "metrics: unknown metric %s" (Sexp.to_string f)

let window_sexp head w =
  Sexp.List [ Sexp.Atom head; Sexp.Atom (fstr w.w_from); Sexp.Atom (fstr w.w_to) ]

let rec print_metric m =
  let form head args w =
    Sexp.List
      ((Sexp.Atom head :: args)
      @ match w with Some w -> [ window_sexp "window" w ] | None -> [])
  in
  match m with
  | Tput (l, w) -> form "tput" [ Sexp.Atom l ] w
  | Mean_rtt (l, w) -> form "mean-rtt" [ Sexp.Atom l ] w
  | P95_rtt (l, w) -> form "p95-rtt" [ Sexp.Atom l ] w
  | Loss l -> form "loss" [ Sexp.Atom l ] None
  | Total_tput w -> form "total-tput" [] w
  | Fairness w -> form "fairness" [] w
  | Total_loss -> form "total-loss" [] None
  | Recovery { pre; after } ->
      Sexp.List
        [
          Sexp.Atom "recovery";
          window_sexp "pre" pre;
          Sexp.List [ Sexp.Atom "after"; Sexp.Atom (fstr after) ];
        ]
  | Harm l -> form "harm" [ Sexp.Atom l ] None
  | Without (l, m) -> form "without" [ Sexp.Atom l; print_metric m ] None

(* Unwindowed keys are the historical ones; a window appends
   "@T0-T1". Keys never contain ',' or '=' (the journal separators). *)
let window_key w = Printf.sprintf "%s-%s" (fstr w.w_from) (fstr w.w_to)

let windowed key = function
  | None -> key
  | Some w -> key ^ "@" ^ window_key w

let recovery_keys pre after =
  let suffix = Printf.sprintf ":%s@%s" (window_key pre) (fstr after) in
  ("recovery" ^ suffix, "recovered" ^ suffix)

let rec metric_name = function
  | Tput (l, w) -> windowed ("tput:" ^ l) w
  | Mean_rtt (l, w) -> windowed ("mean-rtt:" ^ l) w
  | P95_rtt (l, w) -> windowed ("p95-rtt:" ^ l) w
  | Loss l -> "loss:" ^ l
  | Total_tput w -> windowed "total-tput" w
  | Fairness w -> windowed "fairness" w
  | Total_loss -> "total-loss"
  | Recovery { pre; after } -> fst (recovery_keys pre after)
  | Harm l -> "harm:" ^ l
  | Without (l, m) -> Printf.sprintf "without:%s:%s" l (metric_name m)

let metric_keys = function
  | Recovery { pre; after } ->
      let r, ok = recovery_keys pre after in
      [ r; ok ]
  | m -> [ metric_name m ]

(* ---------- topology ---------- *)

let parse_topology form =
  match form with
  | Sexp.List [ Sexp.Atom "topology"; Sexp.List [ Sexp.Atom "dumbbell"; link ] ]
    ->
      Dumbbell (parse_link link)
  | Sexp.List [ Sexp.Atom "topology"; Sexp.List (Sexp.Atom "chain" :: links) ]
    ->
      if links = [] then bad "chain: needs at least one link";
      Chain (List.map parse_link links)
  | Sexp.List
      [ Sexp.Atom "topology"; Sexp.List (Sexp.Atom "parking-lot" :: clauses) ]
    ->
      let hops = ref None
      and cross = ref None
      and link = ref None in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List [ Sexp.Atom "hops"; n ] ->
              hops := Some (int_atom "parking-lot hops" n)
          | Sexp.List [ Sexp.Atom "cross"; c ] ->
              cross := Some (atom "parking-lot cross" c)
          | Sexp.List (Sexp.Atom "link" :: _) as l -> link := Some (parse_link l)
          | f -> bad "parking-lot: unknown clause %s" (Sexp.to_string f))
        clauses;
      let req name v =
        match v with Some v -> v | None -> bad "parking-lot: missing (%s ...)" name
      in
      Parking_lot
        {
          hops = req "hops" !hops;
          link = req "link" !link;
          cross = req "cross" !cross;
        }
  | f ->
      bad "topology: expected (dumbbell LINK), (chain LINK...) or \
           (parking-lot ...), got %s"
        (Sexp.to_string f)

let print_topology = function
  | Dumbbell l ->
      Sexp.List
        [ Sexp.Atom "topology"; Sexp.List [ Sexp.Atom "dumbbell"; print_link l ] ]
  | Chain links ->
      Sexp.List
        [
          Sexp.Atom "topology";
          Sexp.List (Sexp.Atom "chain" :: List.map print_link links);
        ]
  | Parking_lot { hops; link; cross } ->
      Sexp.List
        [
          Sexp.Atom "topology";
          Sexp.List
            [
              Sexp.Atom "parking-lot";
              Sexp.List [ Sexp.Atom "hops"; Sexp.Atom (string_of_int hops) ];
              Sexp.List [ Sexp.Atom "cross"; Sexp.Atom cross ];
              print_link link;
            ];
        ]

(* ---------- whole scenario ---------- *)

let num_hops = function
  | Dumbbell _ -> 0
  | Chain links -> List.length links
  | Parking_lot { hops; _ } -> hops

(* A dumbbell is the one-hop chain: a forward and a reverse link. *)
let num_links = function
  | Dumbbell _ -> 2
  | Chain links -> 2 * List.length links
  | Parking_lot { hops; _ } -> 2 * hops

let flow_labels t =
  List.map (fun f -> f.label) t.flows
  @
  match t.topology with
  | Parking_lot { hops; _ } -> List.init hops (Printf.sprintf "cross%d")
  | _ -> []

let default_metrics t =
  List.concat_map (fun f -> [ Tput (f.label, None); Loss f.label ]) t.flows
  @ [ Total_tput None ]

let validate_exn t =
  if not (ident_ok t.name) then
    bad "name: %S must be non-empty [A-Za-z0-9._-]" t.name;
  if not (Float.is_finite t.duration) || t.duration <= 0.0 then
    bad "duration: must be a positive finite number of seconds";
  if
    (not (Float.is_finite t.measure_from))
    || t.measure_from < 0.0
    || t.measure_from >= t.duration
  then bad "measure-from: must lie in [0, duration)";
  (* Link parameters: re-run the smart constructor so programmatic
     records get the same checks file-parsed ones did. *)
  let check_link (cfg : Link.config) =
    try
      ignore
        (Link.config ~loss_rate:cfg.loss_rate ?loss:cfg.loss ~noise:cfg.noise
           ~schedule:cfg.schedule ~reorder_prob:cfg.reorder_prob
           ~reorder_extra_ms:cfg.reorder_extra_ms ~dup_prob:cfg.dup_prob
           ~bandwidth_mbps:cfg.bandwidth_mbps ~rtt_ms:cfg.rtt_ms
           ~buffer_bytes:cfg.buffer_bytes ())
    with Invalid_argument m -> bad "link: %s" m
  in
  (match t.topology with
  | Dumbbell l -> check_link l
  | Chain links ->
      if links = [] then bad "chain: needs at least one link";
      List.iter check_link links
  | Parking_lot { hops; link; cross } ->
      if hops < 1 then bad "parking-lot: hops must be >= 1";
      check_link link;
      (match Protocols.validate cross with
      | Ok () -> ()
      | Error e -> bad "parking-lot cross: %s" e));
  if t.flows = [] then bad "flows: at least one flow is required";
  let labels = flow_labels t in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      if not (ident_ok l) then bad "label: %S must be [A-Za-z0-9._-]" l;
      if Hashtbl.mem seen l then bad "label: duplicate flow label %S" l;
      Hashtbl.add seen l ())
    labels;
  let hops = num_hops t.topology in
  List.iter
    (fun f ->
      (match Protocols.validate f.cc with
      | Ok () -> ()
      | Error e -> bad "flow %s: %s" f.label e);
      (match f.dp with
      | None -> ()
      | Some d ->
          let regs = Protocols.datapath_registers f.cc in
          if regs = [] then
            bad "flow %s: (datapath ...) needs a datapath protocol, %S is not \
                 one"
              f.label f.cc;
          (match d.dp_interval with
          | Some t when (not (Float.is_finite t)) || t <= 0.0 ->
              bad "flow %s: datapath interval must be positive" f.label
          | _ -> ());
          List.iter
            (fun (r, v) ->
              match Protocols.datapath_const_error f.cc r v with
              | Some e ->
                  bad "flow %s: datapath const %s %s: %s" f.label r (fstr v) e
              | None -> ())
            d.dp_consts);
      if (not (Float.is_finite f.start)) || f.start < 0.0 then
        bad "flow %s: start must be >= 0" f.label;
      if f.start >= t.duration then
        bad "flow %s: start %s is past the scenario duration" f.label
          (fstr f.start);
      (match f.stop with
      | Some s when (not (Float.is_finite s)) || s <= f.start ->
          bad "flow %s: stop must be > start" f.label
      | _ -> ());
      (match f.size_mb with
      | Some x when (not (Float.is_finite x)) || x <= 0.0 ->
          bad "flow %s: size-mb must be positive" f.label
      | Some x when x *. 1e6 < 1.0 ->
          (* [Build.instantiate] truncates the byte count; a flow of 0
             bytes would never complete. *)
          bad "flow %s: size-mb %s is less than one byte" f.label (fstr x)
      | Some x when x *. 1e6 >= 0x1p62 ->
          (* ... and a count of 2^62 bytes or more overflows the int. *)
          bad "flow %s: size-mb %s is 2^62 bytes or more" f.label (fstr x)
      | _ -> ());
      match (t.topology, f.route) with
      | Dumbbell _, E2e -> ()
      | Dumbbell _, (Hop _ | Rev) ->
          bad "flow %s: hop/rev routes need a chain or parking-lot topology"
            f.label
      | _, Hop h when h < 0 || h >= hops ->
          bad "flow %s: hop %d out of range (topology has %d hops)" f.label h
            hops
      | _, _ -> ())
    t.flows;
  let links = num_links t.topology in
  let fluid_seen = Hashtbl.create 4 in
  List.iter
    (fun fl ->
      if fl.f_link < 0 || fl.f_link >= links then
        bad "fluid: link %d out of range (topology has %d links)" fl.f_link
          links;
      if Hashtbl.mem fluid_seen fl.f_link then
        bad "fluid: link %d already carries fluid classes" fl.f_link;
      Hashtbl.add fluid_seen fl.f_link ();
      (match fl.f_buffer_share with
      | Some s when (not (Float.is_finite s)) || s <= 0.0 || s > 1.0 ->
          bad "fluid: buffer-share must lie in (0, 1]"
      | _ -> ());
      if fl.f_classes = [] then bad "fluid: at least one class is required";
      List.iter
        (fun c ->
          if not (ident_ok c.c_label) then
            bad "class label: %S must be [A-Za-z0-9._-]" c.c_label;
          try
            ignore
              (Aggregate.cls ~flows:c.c_flows
                 ~responsiveness:c.c_responsiveness ~label:c.c_label
                 c.c_envelope)
          with Invalid_argument m -> bad "class %s: %s" c.c_label m)
        fl.f_classes)
    t.fluids;
  (* Windows sit on the 0.25 s goodput bins windowed throughput and
     recovery read, inside the run. *)
  let check_window m w =
    let on_bin x = Float.is_integer (x /. series_bin) in
    if
      (not (Float.is_finite w.w_from && Float.is_finite w.w_to))
      || w.w_from < 0.0 || w.w_to > t.duration || w.w_from >= w.w_to
    then
      bad "metrics: %s needs a window 0 <= T0 < T1 <= duration" (metric_name m);
    if not (on_bin w.w_from && on_bin w.w_to) then
      bad "metrics: %s window edges must be multiples of %s s" (metric_name m)
        (fstr series_bin)
  in
  let check_label m l =
    if not (List.mem l labels) then
      bad "metrics: %s references unknown flow label %S" (metric_name m) l
  in
  (* harm and without re-run the spec without a declared flow. *)
  let check_removed m l =
    if not (List.exists (fun f -> f.label = l) t.flows) then
      bad "metrics: %s: %S is not a declared flow (%s)" (metric_name m) l
        (if List.mem l labels then "a parking-lot cross cannot be removed"
         else "unknown flow label")
  in
  let rec check m =
    match m with
    | Tput (l, w) | Mean_rtt (l, w) | P95_rtt (l, w) ->
        check_label m l;
        Option.iter (check_window m) w
    | Loss l -> check_label m l
    | Total_tput w | Fairness w -> Option.iter (check_window m) w
    | Total_loss -> ()
    | Recovery { pre; after } ->
        check_window m pre;
        if (not (Float.is_finite after)) || after < 0.0 || after >= t.duration
        then bad "metrics: %s: after must lie in [0, duration)" (metric_name m)
    | Harm l ->
        check_removed m l;
        if List.length labels < 2 then
          bad "metrics: %s needs another flow to harm" (metric_name m)
    | Without (l, inner) -> (
        check_removed m l;
        match inner with
        | Without _ -> bad "metrics: %s: without does not nest" (metric_name m)
        | Tput (f, _) | Mean_rtt (f, _) | P95_rtt (f, _) | Loss f ->
            if f = l then
              bad "metrics: %s reads %S, the flow it removes" (metric_name m) l;
            check inner
        | _ ->
            bad "metrics: %s needs a per-flow metric (tput, mean-rtt, \
                 p95-rtt or loss)"
              (metric_name m))
  in
  List.iter check t.metrics

let validate t = match validate_exn t with () -> Ok () | exception Bad m -> Error m

let of_sexp_exn form =
  match form with
  | Sexp.List (Sexp.Atom "scenario" :: clauses) ->
      let name = ref "scenario"
      and duration = ref None
      and measure_from = ref None
      and topology = ref None
      and flows = ref None
      and fluids = ref []
      and metrics = ref None in
      List.iter
        (fun clause ->
          match clause with
          | Sexp.List [ Sexp.Atom "name"; n ] -> name := atom "name" n
          | Sexp.List [ Sexp.Atom "duration"; d ] ->
              duration := Some (float_atom "duration" d)
          | Sexp.List [ Sexp.Atom "measure-from"; m ] ->
              measure_from := Some (float_atom "measure-from" m)
          | Sexp.List (Sexp.Atom "topology" :: _) as topo ->
              topology := Some (parse_topology topo)
          | Sexp.List (Sexp.Atom "flows" :: fs) ->
              flows := Some (parse_flows fs)
          | Sexp.List (Sexp.Atom "fluid" :: _) as fl ->
              fluids := !fluids @ [ parse_fluid fl ]
          | Sexp.List (Sexp.Atom "metrics" :: ms) ->
              metrics := Some (List.map parse_metric ms)
          | Sexp.List (Sexp.Atom "grid" :: _) ->
              bad
                "grid: template was not expanded (use Grid.load / Grid.expand \
                 before Spec.of_sexp)"
          | f -> bad "scenario: unknown clause %s" (Sexp.to_string f))
        clauses;
      let duration =
        match !duration with
        | Some d -> d
        | None -> bad "scenario: missing (duration SECONDS)"
      in
      let t =
        {
          name = !name;
          duration;
          measure_from =
            (match !measure_from with Some m -> m | None -> duration /. 3.0);
          topology =
            (match !topology with
            | Some t -> t
            | None -> bad "scenario: missing (topology ...)");
          flows =
            (match !flows with
            | Some fs -> fs
            | None -> bad "scenario: missing (flows ...)");
          fluids = !fluids;
          metrics = (match !metrics with Some ms -> ms | None -> []);
        }
      in
      let t =
        if t.metrics = [] then { t with metrics = default_metrics t } else t
      in
      validate_exn t;
      t
  | f -> bad "expected (scenario ...), got %s" (Sexp.to_string f)

let of_sexp form =
  match of_sexp_exn form with t -> Ok t | exception Bad m -> Error m

let to_sexp t =
  Sexp.List
    ([
       Sexp.Atom "scenario";
       Sexp.List [ Sexp.Atom "name"; Sexp.Atom t.name ];
       Sexp.List [ Sexp.Atom "duration"; Sexp.Atom (fstr t.duration) ];
       Sexp.List [ Sexp.Atom "measure-from"; Sexp.Atom (fstr t.measure_from) ];
       print_topology t.topology;
       Sexp.List (Sexp.Atom "flows" :: List.map print_flow t.flows);
     ]
    @ List.map print_fluid t.fluids
    @ [ Sexp.List (Sexp.Atom "metrics" :: List.map print_metric t.metrics) ])
