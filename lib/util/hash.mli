(** FNV-1a-64, the one checksum every on-disk format in the repository
    uses (feed checkpoints, shard snapshots, journal records) and the hash
    that places a profile name on its shard. *)

(** [fnv1a64 s] — the 64-bit FNV-1a hash of [s]. Allocates only the
    result. *)
val fnv1a64 : string -> int64

(** [add_hex64 b x] appends [x] as exactly 16 lowercase hex digits (the
    bits of [x], two's complement), as [Printf "%016Lx"] would. *)
val add_hex64 : Buffer.t -> int64 -> unit

(** [hex64 x] — {!add_hex64} as a string. *)
val hex64 : int64 -> string
