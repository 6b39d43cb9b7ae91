module Mean_dev = Proteus_stats.Ewma.Mean_dev
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

type t = {
  config : config;
  (* The most recent [history] MIs' mean RTT and RTT deviation, oldest
     first, in fixed arrays of which [n_hist] entries are valid. *)
  avg_rtts : float array;
  deviations : float array;
  mutable n_hist : int;
  trend_grad : Mean_dev.t;
  trend_dev : Mean_dev.t;
}

let create config =
  let cap = max 0 config.history in
  {
    config;
    avg_rtts = Array.make cap 0.0;
    deviations = Array.make cap 0.0;
    n_hist = 0;
    trend_grad = Mean_dev.create ();
    trend_dev = Mean_dev.create ();
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

(* Whether [sample] lies [gate] EWMA deviations from the tracker's
   moving average, then fold it in. Insignificant until the tracker has
   seen 3 samples (NaN mean or deviation: none yet). *)
let significant tracker sample ~gate ~two_sided =
  let avg = Mean_dev.mean_nan tracker and dev = Mean_dev.deviation_nan tracker in
  let result =
    Mean_dev.n_samples tracker >= 3
    && (not (Float.is_nan avg))
    && (not (Float.is_nan dev))
    &&
    let delta = if two_sided then Float.abs (sample -. avg) else sample -. avg in
    delta >= gate *. dev
  in
  Mean_dev.update tracker sample;
  result

(* Returns (trending_gradient significant, trending_deviation
   significant) for the MI just folded in. Until the EWMA trackers have
   seen enough samples the trend is treated as insignificant, deferring
   to the per-MI gate. *)
let update_trending t (m : Mi.metrics) =
  push_history t m;
  let n = t.n_hist in
  if n < 2 then (false, false)
  else begin
    let trending_gradient =
      Regression.slope_of_indexed t.avg_rtts ~len:n
    in
    let trending_deviation = Descriptive.stddev_prefix t.deviations ~len:n in
    let grad_sig =
      significant t.trend_grad trending_gradient ~gate:t.config.g1
        ~two_sided:true
    in
    let dev_sig =
      significant t.trend_dev trending_deviation ~gate:t.config.g2
        ~two_sided:false
    in
    (grad_sig, dev_sig)
  end

let adjust t (m : Mi.metrics) =
  let m =
    match t.config.fixed_gradient_threshold with
    | Some threshold when Float.abs m.Mi.rtt_gradient < threshold ->
        { m with Mi.rtt_gradient = 0.0 }
    | _ -> m
  in
  let grad_sig, dev_sig =
    if t.config.trending_tolerance then update_trending t m
    else (false, false)
  in
  if not t.config.regression_tolerance then m
  else if Float.abs m.Mi.rtt_gradient < m.Mi.regression_error then begin
    (* Statistically indistinguishable from noise, unless the longer
       trend vetoes. *)
    let zero_grad = not grad_sig in
    let zero_dev = zero_grad && not dev_sig in
    {
      m with
      Mi.rtt_gradient = (if zero_grad then 0.0 else m.Mi.rtt_gradient);
      Mi.rtt_deviation = (if zero_dev then 0.0 else m.Mi.rtt_deviation);
    }
  end
  else m
