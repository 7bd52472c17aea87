(** Fault-tolerant ingestion frontend for the {!Online} engine.

    {!Online} demands a clean feed: strictly time-ordered, duplicate-free,
    finite timestamps, and a process that never dies. Real microblog
    traffic offers none of that. [Feed] sits in front and provides:

    - a bounded {e reorder buffer}: arrivals are staged in a sorted ring
      ({!Staging}) of at most [reorder_window] posts and released to the
      engine in time order, so disorder up to the window depth is absorbed
      silently;
    - per-class {e fault policies}: arrivals that are late (older than the
      release watermark even after buffering), duplicates (an id already
      admitted), or carry a non-finite timestamp are dropped, clamped to
      the watermark, or raised as {!Rejected} — each outcome counted;
    - {e overload degradation}: when the number of labels with live
      deadlines exceeds [overload_budget], the most urgent labels are
      demoted to instant handling ({!Online.degrade_earliest}) — the
      emission guarantees survive, queues stop growing, and the shed work
      is counted instead of silently lost;
    - {e checkpoint/restore}: an immutable snapshot of the complete
      frontend + engine state, with a versioned, checksummed text
      serialization for disk. Restoring a checkpoint and replaying the
      remaining stream yields emissions bit-identical to a run that never
      died.

    Every policy decision is deterministic, so a faulty feed replays
    exactly from a seed — which is what `bin/mqdp_fuzz --fault` leans on. *)

(** What to do with a faulty arrival. [Clamp] repairs the post by moving
    its timestamp to the release watermark (for a duplicate, which has no
    repairable timestamp, it behaves like [Drop]). [Raise] throws
    {!Rejected}, leaving the stream state untouched so the caller can skip
    the post and continue. *)
type policy =
  | Drop
  | Clamp
  | Raise

type config = {
  reorder_window : int;  (** max staged posts; 0 = release immediately *)
  late : policy;
  duplicate : policy;
  non_finite : policy;
  overload_budget : int option;
      (** max labels with live deadlines before degradation; [None] never
          degrades *)
}

(** Window 64, every policy [Drop], no degradation. *)
val default_config : config

(** Monotone totals of every decision the frontend has made. *)
type counters = {
  accepted : int;  (** admitted into the reorder buffer *)
  released : int;  (** forwarded to the engine in time order *)
  reordered : int;  (** accepted although older than an earlier arrival *)
  late_dropped : int;
  late_clamped : int;
  duplicate_dropped : int;
  non_finite_dropped : int;
  non_finite_clamped : int;
  rejected : int;  (** faults that raised under a [Raise] policy *)
  degraded_labels : int;  (** labels demoted to instant handling *)
  shed : int;  (** pending posts cleared (λ-covered) by degradation *)
}

type t

exception Rejected of { id : int; what : string }

(** Raised by {!restore} / {!load_checkpoint} on a checkpoint that fails
    validation: bad magic, checksum mismatch, or a structurally invalid
    body. *)
exception Corrupt of string

(** Raised by {!restore} / {!load_checkpoint} on an intact checkpoint
    (magic and checksum valid) whose format version is not the one this
    build writes. Distinct from {!Corrupt} so callers can handle a
    version skew — migrate, warn, refuse — without conflating it with
    data damage. *)
exception Unsupported_version of { found : string; expected : int }

(** [create ?config ?window ~lambda mode] — a fresh frontend over a fresh
    engine. With [window:true] (default [false]) the engine mirrors the
    admitted stream into a {!Window_index} (see {!Online.create}); the
    live window travels inside checkpoints and is restored bit-identically.
    Raises [Invalid_argument] on a negative [reorder_window], a
    non-positive [overload_budget], or invalid engine parameters. *)
val create : ?config:config -> ?window:bool -> lambda:float -> Online.mode -> t

(** The engine's mirrored window, when [create] was given [window:true]
    (or the restored checkpoint carried one). *)
val window : t -> Window_index.t option

type outcome = {
  admitted : Post.t option;
      (** the post as admitted (clamping may have moved its timestamp);
          [None] when the post was dropped *)
  emissions : Online.emission list;  (** due emissions, in emit-time order *)
}

(** [push t post] — run the fault policies, stage the post, release
    everything the window no longer holds, and apply overload
    degradation. Raises {!Rejected} (before touching any stream state)
    when a fault class is configured to [Raise]. *)
val push : t -> Post.t -> outcome

(** [finish t] — release the whole reorder buffer and drain the engine.
    Like {!Online.finish}, the frontend stays usable afterwards. *)
val finish : t -> Online.emission list

val counters : t -> counters
val config : t -> config

(** The wrapped engine, for observability ({!Online.emitted_count},
    {!Online.pending_labels}, ...). Mutating it directly voids the
    checkpoint guarantees. *)
val engine : t -> Online.t

(** Number of posts currently staged in the reorder buffer. *)
val buffered : t -> int

(** Timestamp of the newest post released to the engine, or [None] before
    the first release. Arrivals below it are late. *)
val watermark : t -> float option

(** {2 Checkpointing}

    A {!snapshot} is the complete frontend and engine state as immutable
    data. It shares nothing mutable with the feed it came from: the
    admitted-id and emitted-id sets are append-only logs frozen in O(1)
    ({!Util.Id_log.freeze}), the staged posts and pending lists are
    immutable lists, and the window is a flat array copy. So {!snapshot}
    costs O(window + labels + staged) however long the stream has run,
    and a snapshot stays valid while its feed moves on. {!of_snapshot}
    thaws the two logs, adding O(admitted + emitted ids); it runs only on
    recovery and restore. [of_snapshot (snapshot t)] is observationally
    identical to [t]: pushing the same remaining stream produces
    bit-identical emissions.

    Text exists only where bytes leave the process: {!encode} /
    {!checkpoint} write a line-oriented format with a magic+version
    header, floats as IEEE-754 bit patterns (exact round-trips), the
    mirrored window when one is attached, and a trailing FNV-1a-64
    checksum over the body. {!decode} / {!restore} are the inverse;
    checkpoints from other format versions raise {!Unsupported_version}. *)

type snapshot

val snapshot : t -> snapshot

(** A fresh feed rebuilt from a snapshot; only reads it, so one snapshot
    can seed any number of feeds. Raises {!Corrupt} on a structurally
    invalid (decoded) snapshot. *)
val of_snapshot : snapshot -> t

(** The v2 text of a snapshot. [encode (decode s) = s] for every text
    this format version has written. *)
val encode : snapshot -> string

(** Parse and validate v2 text. Raises {!Corrupt} or
    {!Unsupported_version}. *)
val decode : string -> snapshot

(** [encode (snapshot t)]. *)
val checkpoint : t -> string

(** [of_snapshot (decode text)]. *)
val restore : string -> t

(** [save_checkpoint ~path t] writes {!checkpoint} crash-safely: the bytes
    go to a temp sibling, are fsynced, and only then renamed over [path]
    ({!Util.Fs.atomic_write}) — a crash mid-write leaves the previous
    checkpoint intact, never a torn one. *)
val save_checkpoint : path:string -> t -> unit

val load_checkpoint : string -> t
