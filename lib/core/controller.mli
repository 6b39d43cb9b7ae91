(** The Proteus rate controller: a {!Proteus_net.Sender.S}
    implementation driving PCC's online-learning control loop.

    The sender paces packets at a trial rate per monitor interval and
    climbs the utility surface (§3):

    - {e Starting}: double the rate each MI until utility drops, then
      revert one step and probe.
    - {e Probing}: trial pairs of rates [r(1±eps)] in random order.
      Vivace moves after 2 consecutive agreeing pairs; Proteus trials 3
      pairs and takes the majority vote (§5, "Control Algorithm:
      Majority Rule") — faster and more robust under noise.
    - {e Moving}: step the rate along the decided direction with a
      confidence amplifier and a swing boundary; fall back to probing
      when utility decreases.

    Completed MIs pass through the {!Ack_filter} (per-ACK) and
    {!Tolerance} (per-MI / trending) noise pipeline before utility
    evaluation. The utility function can be swapped mid-flow
    ({!set_utility}) with no controller restart — the paper's
    flexibility goal. *)

type probing_mode =
  | Consistent2  (** Vivace: two consecutive agreeing pairs. *)
  | Majority3  (** Proteus: majority of three pairs. *)

type config = {
  utility : Utility.t;
  tolerance : Tolerance.config;
  use_ack_filter : bool;
  probing_mode : probing_mode;
  epsilon : float;  (** Probing step, default 0.05. *)
  initial_rate_mbps : float;
  min_rate_mbps : float;
  max_rate_mbps : float;
  max_swing_up : float;
      (** Cap on the per-MI relative rate *increase* during the moving
          phase (default 0.5; decreases are always allowed up to 0.5).
          Scavenger presets use a smaller cap so that, after yielding,
          the rate recovers conservatively. *)
  yield_hold : float;
      (** After a downward probing decision, suppress upward decisions
          for this many seconds (default 0: off). Scavenger presets use
          ~1 s so that bursty foreground traffic (web object waves,
          video chunks) is not re-taxed at every burst — an extension
          beyond the paper's described design; see DESIGN.md. *)
}

val default_config : utility:Utility.t -> config
(** Proteus noise pipeline, majority-rule probing, eps 0.05, rates in
    [\[0.05, 2000\]] Mbps starting from 2 Mbps. *)

val vivace_config : utility:Utility.t -> config
(** Vivace baseline: fixed gradient tolerance only, 2-pair consistent
    probing. *)

type t

val create : config -> Proteus_net.Sender.env -> t
val factory : config -> Proteus_net.Sender.factory

include Proteus_net.Sender.S with type t := t

val set_utility : t -> Utility.t -> unit
(** Dynamic utility (re-)selection — "a simple API call" (§3). Applies
    from the next evaluated MI onward. *)

val utility_name : t -> string
val rate_mbps : t -> float
(** Current base sending rate. *)

val mi_count : t -> int
(** Completed MIs so far (tests/debug). *)
