(** Run manifests: one small JSON document per experiment/simulation
    run recording what produced the numbers next to it — the run name,
    the seed, the scenario, the configuration parameters, the code
    version and a snapshot of headline metrics (optionally a full
    {!Metrics} registry).

    Manifests are deterministic given the same tree state: no wall
    clocks or hostnames, so re-running a seeded experiment produces a
    byte-identical manifest — which lets CI's determinism gate compare
    them directly. *)

val code_version : unit -> string
(** The current source version: [$PROTEUS_GIT_SHA] when set (CI),
    otherwise the commit hash resolved from the nearest [.git]
    (walking at most 6 parent directories, loose refs then
    packed-refs), otherwise ["unknown"]. Never raises and runs no
    subprocess. *)

val to_string :
  run:string ->
  ?seed:int ->
  ?scenario:string ->
  ?params:(string * string) list ->
  ?metrics:(string * float) list ->
  ?registry:Metrics.t ->
  unit ->
  string
(** Render a manifest (schema [pcc-proteus-manifest/1]). [params] are
    free-form configuration strings; [metrics] are headline numbers;
    [registry] embeds a full metrics document under ["registry"]. *)

val write :
  path:string ->
  run:string ->
  ?seed:int ->
  ?scenario:string ->
  ?params:(string * string) list ->
  ?metrics:(string * float) list ->
  ?registry:Metrics.t ->
  unit ->
  unit
