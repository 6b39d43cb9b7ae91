(* Upper bound on how long the discard state may last. The paper's rule
   ("ignore samples until one falls below the moving RTT average") can
   latch permanently: the average only updates on accepted samples, so
   if the RTT is legitimately elevated — e.g. a competitor arrived
   right when the filter tripped — no sample ever dips below the frozen
   average and the sender goes blind to the competition signal. A
   bounded discard keeps the mechanism's purpose (skip one ACK
   compression burst) without that failure mode. *)
let max_filter_duration = 0.1

(* Mutable float state lives in a float array (NaN = absent) rather
   than in option-typed record fields: the filter runs once per ACK, and
   a mixed record would box every float store. Slots: 0 = last ACK
   arrival time, 1 = last interarrival interval, 2 = time the discard
   state engaged (NaN when not filtering), 3 = the EWMA of accepted
   RTT samples (NaN before the first). *)
type t = { ratio_threshold : float; st : float array }

(* Weight of a new sample in the RTT average. *)
let rtt_alpha = 0.125

let create ?(ratio_threshold = 50.0) () =
  { ratio_threshold; st = [| Float.nan; Float.nan; Float.nan; Float.nan |] }

let is_filtering t = not (Float.is_nan t.st.(2))

(* Branch-only [Float.max], equal to it on every input (see
   [Descriptive.fmax]); local, so no float crosses a module boundary. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then (if a = 0.0 then a +. b else a)
  else Float.max a b

let[@inline] interval_ratio a b =
  if a <= 0.0 || b <= 0.0 then 1.0 else fmax (a /. b) (b /. a)

(* The average's update, written out so that no float crosses a call;
   the arithmetic is [Proteus_stats.Ewma.update]'s. *)
let[@inline] update_avg t rtt =
  let avg = t.st.(3) in
  t.st.(3) <-
    (if Float.is_nan avg then rtt
     else ((1.0 -. rtt_alpha) *. avg) +. (rtt_alpha *. rtt))

(* Whether the sample is accepted. *)
let[@inline] accept t ~now ~rtt =
  let prev_ack = t.st.(0) in
  let prev_interval = t.st.(1) in
  let interval = if Float.is_nan prev_ack then Float.nan else now -. prev_ack in
  (* NaN comparisons are false, so the trip test only fires when both
     intervals exist — same guard as the original option match. *)
  if
    interval_ratio interval prev_interval > t.ratio_threshold
    && Float.is_nan t.st.(2)
  then t.st.(2) <- now;
  t.st.(1) <- interval;
  t.st.(0) <- now;
  if not (Float.is_nan t.st.(2)) then begin
    let avg = t.st.(3) in
    let below_avg = Float.is_nan avg || rtt < avg in
    if below_avg || now -. t.st.(2) > max_filter_duration then begin
      (* Channel back to normal (or bound exceeded): resume. *)
      t.st.(2) <- Float.nan;
      update_avg t rtt;
      true
    end
    else false
  end
  else begin
    update_avg t rtt;
    true
  end

let accept_m t ~meta = accept t ~now:meta.(0) ~rtt:meta.(2)
let filter t ~now ~rtt = if accept t ~now ~rtt then Some rtt else None
