(** LEDBAT (RFC 6817), the scavenger baseline the paper evaluates
    against.

    Delay-based: keeps queueing delay near a fixed target above the
    observed base delay (100 ms in the RFC and in libutp's default,
    25 ms in the first IETF draft — Appendix B of the paper evaluates
    both). Window grows/shrinks proportionally to the off-target
    fraction, halves on loss. The latecomer advantage emerges from the
    base-delay estimate: a flow joining a standing queue mistakes the
    inflated delay for the base.

    Written as a datapath fold program plus control handler
    ({!Proteus.Datapath}): the RFC's delay filters are fixed register
    banks folded per ACK; the loss halving runs in the handler behind
    an [On_loss] report. The fold reads all three signals
    ([Bytes_acked], [Rtt_sample], [Now]). *)

type params = {
  target_ms : float;  (** Extra queueing-delay target. *)
  gain : float;  (** Ramp gain (RFC default 1.0). *)
}

val default : params
(** 100 ms target, gain 1. *)

val draft_25ms : params
(** The 25 ms first-draft target (paper Appendix B). *)

val register_names : string list
(** Every register, in order. [factory]'s [consts] may set any of
    them; a scenario's [(const REG V)] sets only the parameters
    ["cwnd"], ["target"] (seconds — [(const target 0.025)] reproduces
    [ledbat-25]) and ["gain"] (see
    [Proteus_scenario.Protocols.datapath_registers]). *)

val program :
  ?params:params -> Proteus_net.Sender.env -> Proteus.Datapath.program
(** The fold program, fresh per flow. Its sender name carries the
    [params] target: ["ledbat-100"], ["ledbat-25"]. *)

val handler : Proteus.Datapath.handler
(** The loss-halving control handler (at most once per srtt). *)

val base_delay : float array -> float
(** Base-delay estimate (seconds) held in a register file of
    {!program}: the minimum over the live one-minute buckets. *)

val factory :
  ?params:params ->
  ?interval:float ->
  ?consts:(string * float) list ->
  unit ->
  Proteus_net.Sender.factory
(** One fresh LEDBAT instance per flow. [interval] appends an [Every]
    report trigger (observability-only); [consts] overrides initial
    register values by name. Raises [Invalid_argument] on unknown
    names. *)
