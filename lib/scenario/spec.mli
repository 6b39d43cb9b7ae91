(** The declarative scenario language: a typed spec parsed from
    s-expressions and compiled onto the existing
    {!Proteus_net.Topology} / {!Proteus_net.Runner} stack by {!Build}.

    Grammar (see DESIGN.md §5f for the full walkthrough):

    {v
    (scenario
      (name NAME)                        ; optional, defaults to "scenario"
      (duration SECONDS)
      (measure-from SECONDS)             ; optional, default duration/3
      (topology TOPO)
      (flows FLOW-OR-REPLICATE ...)
      (fluid (link ID) [(buffer-share F)] CLASS ...) ...   ; optional
      (metrics METRIC ...))              ; optional

    TOPO   := (dumbbell LINK)
            | (chain LINK ...)
            | (parking-lot (hops N) (cross CC) LINK)
    LINK   := (link (bw-mbps X) (rtt-ms X) (buffer-bytes N)
               [(loss-rate P)] [(loss LOSSMODEL)] [(noise NOISE)]
               [(reorder-prob P)] [(reorder-extra-ms X)] [(dup-prob P)]
               [(schedule (at T IMP) ...)])
    LOSSMODEL := (iid P) | (gilbert-elliott PGB PBG LG LB)
    NOISE  := none | wifi | lte | (gaussian SIGMA_MS)
    IMP    := (set-bandwidth MBPS) | (set-rtt MS) | (set-buffer BYTES)
            | (set-loss LOSSMODEL) | (down SECONDS [flush])
    FLOW-OR-REPLICATE := FLOW | (replicate N [(every T)] FLOW)
    FLOW   := (flow (cc CC) [(label L)] [(start T)] [(stop T)]
               [(size-mb MB)] [(route e2e | rev | (hop N))])
    CC     := NAME
            | (datapath NAME [(interval T)] [(const REG V)] ...)
    CLASS  := (class (label L) [(flows N)] [(responsiveness R)]
               (envelope (T RATE_MBPS) ...))
    METRIC := (tput L [WINDOW]) | (mean-rtt L [WINDOW])
            | (p95-rtt L [WINDOW]) | (loss L)
            | (total-tput [WINDOW]) | (fairness [WINDOW]) | (total-loss)
            | (recovery (pre T0 T1) (after T)) | (harm L)
            | (without L FLOWMETRIC)
    FLOWMETRIC := (tput F [WINDOW]) | (mean-rtt F [WINDOW])
            | (p95-rtt F [WINDOW]) | (loss F)          ; F other than L
    WINDOW := (window T0 T1)
    v}

    [(replicate N [(every T)] FLOW)] expands at parse time into [N]
    copies of [FLOW], which must carry a [(label L)]: copy [i] is
    labelled [Li] and starts at [START + i × T], where [START] is
    [FLOW]'s start (default 0) and [T] defaults to 0. Every other
    clause, [(stop T)] included, is copied as written. [N] is a
    non-negative integer; [0] adds no flow. A copy's label must not
    clash with another flow's. {!to_sexp} prints the copies as plain
    flows.

    A metric reads the measurement window [\[measure-from, duration)]
    unless it carries a [WINDOW]. Windowed throughput ([tput],
    [total-tput], [fairness]) is the mean of the 0.25 s goodput bins in
    [\[T0, T1)], so window edges must be multiples of 0.25 s.

    [(harm L)] and [(without L M)] read the same spec and seed run
    again without the declared flow [L]: one such run per removed
    label, however many metrics read it. A spec with neither form runs
    once. *)

type route = E2e | Hop of int | Rev

type dp_overrides = {
  dp_interval : float option;
      (** Appends an [Every] report trigger to the fold program. *)
  dp_consts : (string * float) list;
      (** Initial register values by name; validated by
          {!Protocols.datapath_const_error}. *)
}
(** Overrides carried by the [(cc (datapath NAME ...))] form — only
    legal on protocols with non-empty
    {!Protocols.datapath_registers}. *)

type flow = {
  cc : string;  (** {!Protocols} registry name *)
  label : string;
  start : float;
  stop : float option;
  size_mb : float option;
  route : route;
  dp : dp_overrides option;
      (** [Some _] iff the flow used the [(cc (datapath ...))] form. *)
}

type fluid_class = {
  c_label : string;
  c_flows : int;
  c_responsiveness : float;
  c_envelope : (float * float) list;  (** (from_s, rate_mbps) segments *)
}

type fluid = {
  f_link : int;
  f_buffer_share : float option;
  f_classes : fluid_class list;
}

type topology =
  | Dumbbell of Proteus_net.Link.config
  | Chain of Proteus_net.Link.config list
      (** Reverse links mirror the forward hops. *)
  | Parking_lot of { hops : int; link : Proteus_net.Link.config; cross : string }
      (** [hops] identical hops, one [cross] flow pinned per hop;
          declared flows default to the end-to-end route. *)

type window = { w_from : float; w_to : float }
(** [\[w_from, w_to)] in seconds, on 0.25 s bin edges. *)

type metric =
  | Tput of string * window option
  | Mean_rtt of string * window option
  | P95_rtt of string * window option
  | Loss of string
  | Total_tput of window option
  | Fairness of window option
  | Total_loss  (** lost / sent over every flow *)
  | Recovery of { pre : window; after : float }
      (** Seconds after [after] until the all-flow goodput, in 0.25 s
          bins, first reaches 0.8 x its mean over [pre]; censored at
          [duration - after] when it never does. Reports a second,
          0/1 [recovered] key beside it. *)
  | Harm of string
      (** [max 0 (1 - mean_i (tput_i / base_i))] over the other flows,
          where [base_i] comes from the same spec and seed run again
          without the declared flow [L]. *)
  | Without of string * metric
      (** [(without L M)]: the per-flow metric [M] ([Tput], [Mean_rtt],
          [P95_rtt] or [Loss], on a flow other than [L]) in this run
          divided by [M] in the run without the declared flow [L] (the
          run [Harm L] reads); a zero baseline reads 0. Keyed
          ["without:L:"] followed by [M]'s key. *)

type t = {
  name : string;
  duration : float;
  measure_from : float;
  topology : topology;
  flows : flow list;
  fluids : fluid list;
  metrics : metric list;
}

val series_bin : float
(** Width in seconds of the goodput bins windowed throughput and
    recovery read (0.25). *)

val metric_name : metric -> string
(** Stable key used in journal payloads and BENCH_matrix rows, e.g.
    ["tput:a"], ["fairness"], ["total-tput@3-8"], ["harm:e2e"],
    ["recovery:3-8@10"], ["without:s:p95-rtt:p"]. *)

val metric_keys : metric -> string list
(** Every key a metric reports, in order: [metric_name], plus
    ["recovered:T0-T1@T"] after a recovery. *)

val flow_labels : t -> string list
(** Labels of declared flows plus the implicit [crossN] parking-lot
    cross flows, in instantiation order. *)

val default_metrics : t -> metric list
(** The metrics an empty [(metrics)] clause defaults to: per-flow
    throughput and loss plus [total-tput]. *)

val of_sexp : Sexp.t -> (t, string) result
(** Parse and fully validate one [(scenario ...)] form: structural
    errors (unknown clauses, arity, non-numeric atoms), link-parameter
    errors (via {!Proteus_net.Link.config}), fluid-class errors (via
    {!Proteus_net.Aggregate.cls}), unknown protocols, duplicate or
    malformed labels, routes incompatible with the topology, metric
    references to unknown flow labels, and unbound [$var] atoms left
    over from a template that was never instantiated. *)

val to_sexp : t -> Sexp.t
(** Canonical printing; [of_sexp (to_sexp t) = Ok t]. *)

val validate : t -> (unit, string) result
(** Semantic checks on an already-typed spec (what {!of_sexp} runs
    after parsing) — exposed for specs built programmatically. *)
