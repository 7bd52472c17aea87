(** Append-only set of integer ids with O(1) frozen views.

    A live set is an admission-order [int array] log. While ids arrive in
    increasing order the log itself is the search structure: a fresh id
    beyond the newest costs one comparison, an older one a binary search.
    The first out-of-order id builds an open-addressing index over the
    log, kept from then on.

    Ids are only ever added, and the live set writes only past its own
    length, so {!freeze} is O(1): the frozen view shares the log array and
    reads the prefix that existed when it was taken. Growth copies into a
    fresh array and leaves every earlier view untouched; {!thaw} copies a
    view's prefix (and rebuilds the index when the ids were not in
    order), O(ids).

    Every id is admissible, [min_int] and negatives included. An empty set
    allocates nothing beyond its record until the first {!add}. *)

type t

val create : unit -> t

val mem : t -> int -> bool

(** [add t id] — no-op when [id] is already a member. *)
val add : t -> int -> unit

val cardinal : t -> int

(** {2 Frozen views} *)

type frozen

(** The members as of now; later adds to [t] do not show through. O(1). *)
val freeze : t -> frozen

(** A new live set holding a view's members, independent of every other
    set and view. O(members). *)
val thaw : frozen -> t

(** The members of a list, duplicates collapsed. *)
val of_list : int list -> frozen

val frozen_cardinal : frozen -> int

(** [iter_ascending f v] calls [f] on each member in increasing order.
    When the ids were added in increasing order this walks the log
    directly; otherwise it sorts a copy. *)
val iter_ascending : (int -> unit) -> frozen -> unit
