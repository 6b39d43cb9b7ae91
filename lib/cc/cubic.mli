(** TCP CUBIC (RFC 8312): loss-based, cubic window growth with fast
    convergence and a TCP-friendly region. Window-limited transmission
    (ack-clocked); reacts to at most one loss event per RTT.

    Written as a datapath fold program plus control handler
    ({!Proteus.Datapath}): the per-ACK growth is the fold; the
    multiplicative decrease runs in the handler behind an [On_loss]
    report. The fold reads [Rtt_sample] and [Now]. The cubic term comes
    from {!cube}, which calls libm only on its fallback. *)

val register_names : string list
(** Every register, in order: cwnd, ssthresh, w_max, epoch_start, k,
    srtt, last_reduction. [factory]'s [consts] may set any of them; a
    scenario's [(const REG V)] sets only [cwnd] and [ssthresh], the
    parameters (see [Proteus_scenario.Protocols.datapath_registers]). *)

val cube : float -> float
(** [x ** 3.0], bit for bit, computed without a libm call on about
    nine inputs in ten: the window-growth kernel, exposed for its
    property test. *)

val program : Proteus_net.Sender.env -> Proteus.Datapath.program
(** The fold program. Flows share its register declarations (read
    them, never mutate them); all per-flow state lives in the
    adapter's register file. Its sender name is ["cubic"]. *)

val handler : Proteus.Datapath.handler
(** The loss-reaction control handler. *)

val factory :
  ?interval:float ->
  ?consts:(string * float) list ->
  unit ->
  Proteus_net.Sender.factory
(** One fresh CUBIC instance per flow. [interval] appends an [Every]
    report trigger (observability-only — the handler ignores interval
    reports); [consts] overrides initial register values by name.
    Raises [Invalid_argument] on unknown names. *)
