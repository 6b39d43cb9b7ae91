(** Protocol registry shared by the scenario language and the
    [proteus-sim] CLI: congestion controllers by name, plus the
    parameterized [blaster=RATE_MBPS] constant-rate sender. *)

val known : string list
(** Fixed protocol names (excludes the [blaster=R] family). *)

val validate : string -> (unit, string) result
(** Whether the name denotes a constructible sender (case-insensitive),
    without building one — used by spec validation, which must not
    allocate sender state. *)

val factory : string -> (Proteus_net.Sender.factory, string) result
(** Fresh sender factory for the named protocol. *)

val datapath_registers : string -> string list
(** Register names the datapath protocol accepts in [(const REG V)]
    overrides; [[]] for a name that is not a datapath protocol, i.e.
    may not appear in the scenario language's [(cc (datapath NAME
    ...))] form. [cubic-dp] takes [cwnd] and [ssthresh], [ledbat-dp]
    [cwnd], [target] and [gain]; every other register is flow state
    or, for LEDBAT's [mtu], taken from the sender's environment. *)

val max_cwnd : float
(** The largest initial window [(const cwnd V)] accepts: 10,000
    packets, 15 MB at the 1500-byte MTU. A larger window only adds a
    line-rate burst at time 0, and one that never fills keeps the
    runner sending at one instant. *)

val datapath_const_error : string -> string -> float -> string option
(** [datapath_const_error name reg v] is [None] when [(const reg v)]
    is legal on datapath protocol [name], else why not: [reg] is not
    in {!datapath_registers}, or [v] is not finite, or out of range —
    [cwnd] in [\[1, max_cwnd\]] packets, LEDBAT's [target] positive,
    its [gain] in [(0, 1\]] as RFC 6817 requires. *)

val datapath_factory :
  ?interval:float ->
  ?consts:(string * float) list ->
  string ->
  (Proteus_net.Sender.factory, string) result
(** Fresh factory for a datapath protocol with overrides applied:
    [interval] appends an [Every] report trigger, [consts] replaces
    initial register values by name (validate against
    {!datapath_registers} first — unknown names raise). *)
