module Regression = Proteus_stats.Regression
module Descriptive = Proteus_stats.Descriptive

type config = {
  regression_tolerance : bool;
  trending_tolerance : bool;
  history : int;
  g1 : float;
  g2 : float;
  fixed_gradient_threshold : float option;
}

let proteus_default =
  {
    regression_tolerance = true;
    trending_tolerance = true;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = None;
  }

let vivace_default =
  {
    regression_tolerance = false;
    trending_tolerance = false;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = Some 0.01;
  }

let disabled =
  {
    regression_tolerance = false;
    trending_tolerance = false;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = None;
  }

(* Weights of a new sample in the trend trackers' moving average and
   moving deviation ([Ewma.Mean_dev]'s defaults). *)
let trend_alpha = 0.125
let trend_beta = 0.25

type t = {
  config : config;
  (* The most recent [history] MIs' mean RTT and RTT deviation, oldest
     first, in fixed arrays of which [n_hist] entries are valid. *)
  avg_rtts : float array;
  deviations : float array;
  mutable n_hist : int;
  (* The two trend trackers, [Ewma.Mean_dev] written out in a float
     array so that no float crosses a call: slots 0 and 1 hold the
     trending gradient's moving average and deviation, 2 and 3 the
     trending deviation's (NaN = no sample yet); both have seen
     [n_trend] samples. *)
  fl : float array;
  mutable n_trend : int;
  out : float array; (* statistics scratch *)
}

let create config =
  let cap = max 0 config.history in
  {
    config;
    avg_rtts = Array.make cap 0.0;
    deviations = Array.make cap 0.0;
    n_hist = 0;
    fl = [| Float.nan; Float.nan; Float.nan; Float.nan |];
    n_trend = 0;
    out = Array.create_float 2;
  }

(* Append one MI, dropping the oldest once [history] are held. *)
let push_history t (m : Mi.metrics) =
  let cap = Array.length t.avg_rtts in
  if cap > 0 then begin
    if t.n_hist = cap then begin
      Array.blit t.avg_rtts 1 t.avg_rtts 0 (cap - 1);
      Array.blit t.deviations 1 t.deviations 0 (cap - 1);
      t.n_hist <- cap - 1
    end;
    t.avg_rtts.(t.n_hist) <- m.Mi.avg_rtt;
    t.deviations.(t.n_hist) <- m.Mi.rtt_deviation;
    t.n_hist <- t.n_hist + 1
  end

(* [Ewma.update]'s arithmetic. *)
let[@inline] ewma avg ~alpha x =
  if Float.is_nan avg then x else ((1.0 -. alpha) *. avg) +. (alpha *. x)

(* Whether [sample] lies [gate] moving deviations from the moving
   average of the tracker at slot [k], then fold it in. Insignificant
   until the tracker has seen 3 samples (NaN mean or deviation: none
   yet). *)
let[@inline] significant t k sample ~gate ~two_sided =
  let fl = t.fl in
  let avg = fl.(k) and dev = fl.(k + 1) in
  let result =
    t.n_trend >= 3
    && (not (Float.is_nan avg))
    && (not (Float.is_nan dev))
    &&
    let delta = if two_sided then Float.abs (sample -. avg) else sample -. avg in
    delta >= gate *. dev
  in
  if not (Float.is_nan avg) then
    fl.(k + 1) <- ewma dev ~alpha:trend_beta (Float.abs (sample -. avg));
  fl.(k) <- ewma avg ~alpha:trend_alpha sample;
  result

(* Bit 0 set: the trending gradient is significant; bit 1: the trending
   deviation is, for the MI just folded in. Until the trackers have seen
   enough samples the trend is treated as insignificant, deferring to
   the per-MI gate. *)
let update_trending t (m : Mi.metrics) =
  push_history t m;
  let n = t.n_hist in
  if n < 2 then 0
  else begin
    let trending_gradient = Regression.slope_of_indexed t.avg_rtts ~len:n in
    Descriptive.moments_prefix_into t.deviations ~len:n ~out:t.out;
    let trending_deviation = t.out.(1) in
    let grad_sig =
      significant t 0 trending_gradient ~gate:t.config.g1 ~two_sided:true
    in
    let dev_sig =
      significant t 2 trending_deviation ~gate:t.config.g2 ~two_sided:false
    in
    t.n_trend <- t.n_trend + 1;
    (if grad_sig then 1 else 0) lor if dev_sig then 2 else 0
  end

let adjust t (m : Mi.metrics) =
  (match t.config.fixed_gradient_threshold with
  | Some threshold when Float.abs m.Mi.rtt_gradient < threshold ->
      m.Mi.rtt_gradient <- 0.0
  | _ -> ());
  let signals = if t.config.trending_tolerance then update_trending t m else 0 in
  if
    t.config.regression_tolerance
    && Float.abs m.Mi.rtt_gradient < m.Mi.regression_error
  then begin
    (* Statistically indistinguishable from noise, unless the longer
       trend vetoes. *)
    let zero_grad = signals land 1 = 0 in
    if zero_grad then begin
      m.Mi.rtt_gradient <- 0.0;
      if signals land 2 = 0 then m.Mi.rtt_deviation <- 0.0
    end
  end

let moments_fields t =
  let n = t.n_hist in
  let last a = if n >= 1 then a.(n - 1) else Float.nan in
  let trend i = if n >= 2 then t.out.(i) else Float.nan in
  [
    ("mi_avg_rtt", last t.avg_rtts);
    ("mi_rtt_dev", last t.deviations);
    ("trend_dev_mean", trend 0);
    ("trend_dev_dev", trend 1);
  ]
