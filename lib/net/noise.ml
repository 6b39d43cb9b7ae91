module Rng = Proteus_stats.Rng

type spec =
  | None_
  | Gaussian of { sigma_ms : float }
  | Lte of {
      frame_ms : float;
      jitter_ms : float;
      outage_prob : float;
      outage_max_ms : float;
    }
  | Wifi of {
      jitter_ms : float;
      spike_prob : float;
      spike_scale_ms : float;
      gate_prob : float;
      gate_max_ms : float;
    }

let default_lte =
  Lte
    { frame_ms = 1.0; jitter_ms = 0.3; outage_prob = 0.002;
      outage_max_ms = 40.0 }

let default_wifi =
  Wifi
    {
      jitter_ms = 1.0;
      spike_prob = 0.004;
      spike_scale_ms = 8.0;
      gate_prob = 0.01;
      gate_max_ms = 25.0;
    }

type t = {
  spec : spec;
  rng : Rng.t;
  (* Unboxed float state: fl.(0) is the gate-open instant, fl.(1) the
     last nominal delivery time, which backs the nondecreasing-input
     check (mutable float fields in a mixed record would box on every
     store). *)
  fl : float array;
}

let create spec ~rng = { spec; rng; fl = [| 0.0; neg_infinity |] }

(* Gaussian jitter truncated to be nonnegative: latency noise can only
   delay delivery in our model. *)
let jitter rng ~sigma =
  if sigma <= 0.0 then 0.0
  else Float.abs (Rng.gaussian rng ~mu:0.0 ~sigma)

let ack_delivery_time t ~nominal =
  (* The gate state ([gate_until]) assumes ACKs are presented in send
     order; a decreasing [nominal] would silently produce out-of-order
     delivery times, so reject it loudly instead (small slack for
     floating-point noise in callers' arithmetic). *)
  if nominal < t.fl.(1) -. 1e-9 then
    invalid_arg
      (Printf.sprintf
         "Noise.ack_delivery_time: nominal %.9f < previous %.9f (calls must \
          be nondecreasing)"
         nominal t.fl.(1));
  if nominal > t.fl.(1) then t.fl.(1) <- nominal;
  match t.spec with
  | None_ -> nominal
  | Gaussian { sigma_ms } ->
      nominal +. jitter t.rng ~sigma:(Units.ms sigma_ms)
  | Lte { frame_ms; jitter_ms; outage_prob; outage_max_ms } ->
      (* Quantize delivery up to the next scheduling frame boundary. *)
      let frame = Units.ms frame_ms in
      let quantized = Float.ceil (nominal /. frame) *. frame in
      let d = ref (quantized +. jitter t.rng ~sigma:(Units.ms jitter_ms)) in
      if nominal >= t.fl.(0) && Rng.bernoulli t.rng ~p:outage_prob then
        t.fl.(0) <-
          nominal
          +. Rng.uniform t.rng ~lo:(Units.ms 5.0) ~hi:(Units.ms outage_max_ms);
      if !d < t.fl.(0) then d := t.fl.(0);
      !d
  | Wifi { jitter_ms; spike_prob; spike_scale_ms; gate_prob; gate_max_ms } ->
      let d = ref (nominal +. jitter t.rng ~sigma:(Units.ms jitter_ms)) in
      if Rng.bernoulli t.rng ~p:spike_prob then begin
        let spike =
          Rng.pareto t.rng ~shape:1.5 ~scale:(Units.ms spike_scale_ms)
        in
        d := !d +. Float.min spike (Units.ms 60.0)
      end;
      (* ACK compression: a gate holds all ACKs whose nominal delivery
         falls before it opens, releasing them back-to-back. *)
      if nominal >= t.fl.(0) && Rng.bernoulli t.rng ~p:gate_prob then
        t.fl.(0) <-
          nominal +. Rng.uniform t.rng ~lo:(Units.ms 2.0) ~hi:(Units.ms gate_max_ms);
      if !d < t.fl.(0) then d := t.fl.(0);
      !d
