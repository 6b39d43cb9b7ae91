(** Compile a validated {!Spec.t} onto the packet-level simulator.

    Specs are compiled through the same {!Proteus_net.Topology} /
    {!Proteus_net.Runner} constructors the hand-written bench
    experiments use, so a spec-driven run is bit-identical to its
    hand-written twin given the same seed.

    The optional [kernel] arguments are accepted for source
    compatibility and ignored (see {!Proteus_net.Runner.create}). *)

val topology : Spec.t -> Proteus_net.Topology.t
(** The spec's topology with fluid aggregate classes attached. Raises
    [Invalid_argument] on parameters the net-layer smart constructors
    reject ({!Spec.validate} catches these earlier). *)

val instantiate :
  ?trace:Proteus_obs.Trace.t ->
  ?kernel:Proteus_eventsim.Sim.kernel ->
  seed:int ->
  Spec.t ->
  Proteus_net.Runner.t * (string * Proteus_net.Runner.flow) list
(** Build the runner and register every flow — declared flows in
    declaration order, then the implicit parking-lot [crossN] flows.
    Returns the flows keyed by label. Raises [Failure] on unknown
    protocol names and [Invalid_argument] on route/topology mismatches
    (both caught earlier by {!Spec.validate}). *)

val metric_values :
  ?baselines:(string * (string * float) list) list ->
  Spec.t ->
  (string * Proteus_net.Runner.flow) list ->
  (string * float) list
(** Evaluate the spec's metrics after a run, in declaration order,
    keyed by {!Spec.metric_keys}. Unwindowed metrics read the
    measurement window [\[measure-from, duration)]; windowed throughput
    averages the {!Spec.series_bin} goodput bins inside its window. RTT
    metrics report milliseconds and default to [0.] when no samples
    landed in the window; non-finite values read [0.].

    [baselines] maps each label that a [(harm L)] or [(without L M)]
    removes to what those metrics read of the run without [L], keyed
    by metric key ({!baselines}); a metric without its entry raises
    [Failure]. *)

val baselines :
  ?kernel:Proteus_eventsim.Sim.kernel ->
  ?audit:bool ->
  ?arm:(Proteus_net.Runner.t -> unit) ->
  seed:int ->
  Spec.t ->
  (string * (string * float) list) list
(** One run per label that a [(harm L)] or [(without L M)] removes: the
    same spec and seed without the declared flow [L] (as {!run_metrics}
    runs a spec). Each label maps to that run's values, keyed by
    {!Spec.metric_name}, of the other flows' [tput] (for harm) and of
    each [M] (for without). A spec with neither form runs nothing. *)

val run_metrics :
  ?trace:Proteus_obs.Trace.t ->
  ?kernel:Proteus_eventsim.Sim.kernel ->
  ?audit:bool ->
  ?arm:(Proteus_net.Runner.t -> unit) ->
  seed:int ->
  Spec.t ->
  (string * float) list
(** [instantiate], run to [duration], and evaluate metrics. [audit]
    (default true) attaches the conservation auditor so violations
    raise; when every flow has a [(stop ...)] (and no parking-lot cross
    runs forever) the run must also end quiesced. Each label that
    [(harm L)] or [(without L M)] removes adds one more run, of the
    same spec and seed without flow [L] ({!baselines}). [arm] is
    called with every runner before it runs — hook for
    {!Proteus_harness.Supervisor.arm_runner} without a harness
    dependency here. [trace] records the main run only. *)
