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
    ...))] form. *)

val datapath_factory :
  ?interval:float ->
  ?consts:(string * float) list ->
  string ->
  (Proteus_net.Sender.factory, string) result
(** Fresh factory for a datapath protocol with overrides applied:
    [interval] appends an [Every] report trigger, [consts] replaces
    initial register values by name (validate against
    {!datapath_registers} first — unknown names raise). *)
