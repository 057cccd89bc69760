(** The interpreter: executes a multi-threaded DSL program and emits the
    totally ordered instrumentation trace.

    This is the repository's stand-in for Valgrind's dynamic binary
    instrumentation: the profilers and tools of the paper consume the
    event stream this module produces.  A run is a pure function of the
    program, the scheduler policy and the seed. *)

type config = {
  scheduler : Scheduler.policy;
  seed : int;
  devices : (string * Device.t) list;
      (** named devices available to [sys_open] *)
  max_events : int;  (** abort runaway programs (default 50M) *)
  reuse_freed_memory : bool;
      (** when true the allocator recycles freed blocks (first fit),
          exercising the profilers' address-recycling path; default
          false gives a pure bump allocator with fresh addresses *)
}

val default_config : config

type result = {
  trace : Aprof_trace.Trace.t;
  routines : Aprof_trace.Routine_table.t;
  threads_spawned : int;
  memory_high_water : int;  (** peak allocated simulated cells *)
  events_emitted : int;
      (** total events the run produced — also meaningful for streaming
          runs, whose [trace] field stays empty *)
}

(** Raised on deadlock, unbalanced call/return, unknown device, negative
    allocation, join on an unknown thread, event-budget exhaustion, or a
    read or write outside the simulated address space.

    Simulated memory lives on the {!Aprof_shadow.Shadow_memory} page
    table: one int per cell, unset cells read [0].  The address space is
    [\[0, 2{^40})] cells; an access below or beyond it (including the
    zeroing of a recycled block) raises
    [Run_error "... address ... beyond the VM address space"] rather than
    growing the table until it runs out of memory. *)
exception Run_error of string

(** [run config threads] executes the initial [threads] (thread ids 0, 1,
    ... in list order) to completion and returns the recorded trace.
    @raise Run_error as described above. *)
val run : config -> unit Program.t list -> result

(** [run_to_sink config threads ~sink] is [run] streaming each event to
    [sink] instead of materializing the trace; returns the same metadata
    with an empty trace. *)
val run_to_sink :
  config -> unit Program.t list -> sink:(Aprof_trace.Event.t -> unit) -> result

(** [run_instrumented config threads ~tool] is the online-profiling mode:
    [tool] receives the run's routine intern table *before* the first
    event and returns the event callback, so an analysis (a profiler, a
    trace encoder) can observe the workload while it executes and resolve
    routine ids to names as they are interned — the interpreter interns a
    routine's name before emitting its [Call] event.  No trace is
    materialized. *)
val run_instrumented :
  config ->
  unit Program.t list ->
  tool:(Aprof_trace.Routine_table.t -> Aprof_trace.Event.t -> unit) ->
  result

(** [run_batched config threads ~tool] is the hot-path variant of
    {!run_instrumented}: the interpreter packs events straight into a
    recycled {!Aprof_trace.Event.Batch.t} — no [Event.t] is ever
    constructed — and hands it to the callback when full, plus once more
    (partially filled) at the end of the run.  The callback must not
    retain the batch: it is cleared and reused after each call.  The
    per-event entry points above are thin wrappers over this one. *)
val run_batched :
  config ->
  unit Program.t list ->
  tool:(Aprof_trace.Routine_table.t -> Aprof_trace.Event.Batch.t -> unit) ->
  result
