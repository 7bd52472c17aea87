type config = {
  lambda : float;
  mode : Online.mode;
  feed : Feed.config;
  window : bool;
  checkpoint_every : int;
  max_restarts : int;
}

let default_config =
  {
    lambda = 60.;
    mode = Online.Delayed { tau = 30.; plus = false };
    feed = Feed.default_config;
    window = true;
    checkpoint_every = 64;
    max_restarts = 3;
  }

type t = {
  name : string;
  subscription : Label_set.t;
  config : config;
  mutable degraded : bool;
  mutable quarantined : bool;
  mutable crashes : int;
  mutable feed : Feed.t;  (* live incarnation; rebuilt wholesale on crash *)
  (* Durable state: everything below survives a crash because recovery
     only ever reads it — the live feed is the one thing rebuilt. *)
  mutable ckpt : Feed.snapshot;
  mutable ckpt_emit_seq : int;
  mutable ckpt_buffer_rev : (int * Online.emission) list;  (* newest first *)
  mutable journal_rev : Post.t list;  (* applied since ckpt, newest first *)
  mutable journal_n : int;
  pending_q : Post.t Queue.t;
  mutable pending_n : int;
  mutable emit_seq : int;
  mutable reported_upto : int;
  mutable buffer_rev : (int * Online.emission) list;  (* newest first *)
  mutable acked : int;
  mutable applied : int;
  mutable rejected : int;
  breaker : Supervisor.Breaker.t;
}

let make_feed (config : config) =
  Feed.create ~config:config.feed ~window:config.window ~lambda:config.lambda
    config.mode

let create ~name ~subscription config =
  if name = "" then invalid_arg "Profile.create: empty name";
  if Label_set.is_empty subscription then
    invalid_arg "Profile.create: empty subscription";
  if config.checkpoint_every < 0 then
    invalid_arg "Profile.create: checkpoint_every < 0";
  if config.max_restarts < 0 then invalid_arg "Profile.create: max_restarts < 0";
  let feed = make_feed config in
  {
    name;
    subscription;
    config;
    degraded = false;
    quarantined = false;
    crashes = 0;
    feed;
    ckpt = Feed.snapshot feed;
    ckpt_emit_seq = 0;
    ckpt_buffer_rev = [];
    journal_rev = [];
    journal_n = 0;
    pending_q = Queue.create ();
    pending_n = 0;
    emit_seq = 0;
    reported_upto = 0;
    buffer_rev = [];
    acked = 0;
    applied = 0;
    rejected = 0;
    breaker = Supervisor.Breaker.create ();
  }

let name t = t.name
let subscription t = t.subscription
let config t = t.config
let degraded t = t.degraded
let mark_degraded t = t.degraded <- true
let quarantined t = t.quarantined
let crashes t = t.crashes
let pending t = t.pending_n
let unreported t = List.length t.buffer_rev
let acked t = t.acked
let applied t = t.applied
let rejected t = t.rejected
let window t = Feed.window t.feed
let breaker t = t.breaker

let offer t post =
  if t.quarantined then invalid_arg "Profile.offer: profile is quarantined";
  Queue.push post t.pending_q;
  t.pending_n <- t.pending_n + 1;
  t.acked <- t.acked + 1

let note_emissions t emissions =
  List.iter
    (fun e ->
      t.emit_seq <- t.emit_seq + 1;
      t.buffer_rev <- (t.emit_seq, e) :: t.buffer_rev)
    emissions

(* A [Raise]-policy rejection is a policy outcome, not a failure: the feed
   state is untouched, the post is consumed and counted. Replay reproduces
   the same rejection deterministically (without recounting). *)
let apply_post t post =
  match Feed.push t.feed post with
  | outcome -> note_emissions t outcome.Feed.emissions
  | exception Feed.Rejected _ -> t.rejected <- t.rejected + 1

(* Rebuild the live feed from the checkpoint and replay the journal
   chaos-free. Feed's bit-identical replay guarantee regenerates exactly
   the emissions the dead incarnation produced — same order, and (counting
   from the checkpoint's sequence number) the same sequence numbers — so
   the unreported buffer can be reconstructed precisely: pre-checkpoint
   emissions come from [ckpt_buffer_rev], post-checkpoint ones from the
   replay, both filtered by the reported watermark. [feed] is the fresh
   incarnation, built from [t.ckpt]. *)
let replay_into t feed =
  t.feed <- feed;
  let seq = ref t.ckpt_emit_seq in
  let replayed_rev = ref [] in
  let replay post =
    match Feed.push feed post with
    | outcome ->
      List.iter
        (fun e ->
          incr seq;
          if !seq > t.reported_upto then replayed_rev := (!seq, e) :: !replayed_rev)
        outcome.Feed.emissions
    | exception Feed.Rejected _ -> ()
  in
  List.iter replay (List.rev t.journal_rev);
  t.emit_seq <- !seq;
  let kept_ckpt =
    List.filter (fun (s, _) -> s > t.reported_upto) t.ckpt_buffer_rev
  in
  t.buffer_rev <- !replayed_rev @ kept_ckpt

let recover t = replay_into t (Feed.of_snapshot t.ckpt)

(* The snapshot shares no mutable state with the live feed and the
   emission list is immutable, so both are kept by reference: the cost is
   independent of the stream's age. *)
let checkpoint_now t =
  t.ckpt <- Feed.snapshot t.feed;
  t.ckpt_emit_seq <- t.emit_seq;
  t.ckpt_buffer_rev <- t.buffer_rev;
  t.journal_rev <- [];
  t.journal_n <- 0

let maybe_auto_checkpoint t =
  if t.config.checkpoint_every > 0 && t.journal_n >= t.config.checkpoint_every
  then checkpoint_now t

(* Apply one post, recovering from any crash. The first attempt runs the
   chaos hook before touching the feed (so an injected crash can never
   tear it); retries after a recovery run chaos-free, so each crash makes
   progress — unless the restart limit trips, which quarantines. Returns
   [false] on quarantine. *)
let rec apply_with_recovery t ~chaos ~use_chaos post =
  match
    if use_chaos then chaos ();
    apply_post t post
  with
  | () ->
    t.journal_rev <- post :: t.journal_rev;
    t.journal_n <- t.journal_n + 1;
    true
  | exception _ ->
    t.crashes <- t.crashes + 1;
    recover t;
    if t.crashes > t.config.max_restarts then begin
      t.quarantined <- true;
      false
    end
    else apply_with_recovery t ~chaos ~use_chaos:false post

let process ?(chaos = fun () -> ()) ?(budget = Util.Budget.unlimited) t =
  let applied0 = t.applied in
  (try
     while (not t.quarantined) && t.pending_n > 0 do
       Util.Budget.step budget;
       let post = Queue.peek t.pending_q in
       if apply_with_recovery t ~chaos ~use_chaos:true post then begin
         ignore (Queue.pop t.pending_q);
         t.pending_n <- t.pending_n - 1;
         t.applied <- t.applied + 1;
         maybe_auto_checkpoint t
       end
     done
   with Util.Budget.Exhausted _ -> ());
  t.applied - applied0

let take_report t =
  let report = List.rev t.buffer_rev in
  t.buffer_rev <- [];
  t.reported_upto <- t.emit_seq;
  report

let drain t =
  if not t.quarantined then begin
    note_emissions t (Feed.finish t.feed);
    (* Mandatory: finish emissions cannot be regenerated by journal
       replay, so they must be baked into the checkpoint to be durable. *)
    checkpoint_now t
  end

let revive t =
  if t.quarantined then begin
    recover t;
    t.crashes <- 0;
    t.quarantined <- false
  end

(* {2 Durable serialization}

   Line-oriented text mirroring Feed's checkpoint idioms: floats as hex
   IEEE-754 bit patterns (exact round-trips), the feed snapshot encoded
   as a v2 checkpoint and escaped onto one line. This is the only place a
   profile's checkpoint becomes text. Integrity (checksums) is the
   enclosing shard snapshot's job. *)

let float_of_hex s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> raise (Feed.Corrupt (Printf.sprintf "bad float field %S" s))

let labels_of_field s =
  if s = "-" then Label_set.empty
  else
    Label_set.of_list
      (List.map
         (fun tok ->
           match int_of_string_opt tok with
           | Some l when l >= 0 -> l
           | _ -> raise (Feed.Corrupt (Printf.sprintf "bad label field %S" s)))
         (String.split_on_char ',' s))

let post_of_tokens = function
  | [ id; value; labels ] -> (
    match int_of_string_opt id with
    | Some id ->
      Post.make ~id ~value:(float_of_hex value) ~labels:(labels_of_field labels)
    | None -> raise (Feed.Corrupt "bad post id"))
  | _ -> raise (Feed.Corrupt "bad post field count")

let policy_char = function Feed.Drop -> 'd' | Feed.Clamp -> 'c' | Feed.Raise -> 'r'

let policy_of_char = function
  | 'd' -> Feed.Drop
  | 'c' -> Feed.Clamp
  | 'r' -> Feed.Raise
  | c -> raise (Feed.Corrupt (Printf.sprintf "bad policy char %c" c))

let blob t =
  let open Text_codec in
  let b = Buffer.create 1024 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  str "name ";
  str (String.escaped t.name);
  str "\nflags";
  add_ints b [ Bool.to_int t.degraded; Bool.to_int t.quarantined; t.crashes ];
  str "\ncounters";
  add_ints b [ t.acked; t.applied; t.rejected ];
  str "\nseqs";
  add_ints b [ t.reported_upto; t.ckpt_emit_seq ];
  str "\nconfig ";
  add_float b t.config.lambda;
  (match t.config.mode with
  | Online.Instant -> str " instant"
  | Online.Delayed { tau; plus } ->
    str " delayed ";
    add_float b tau;
    add_ints b [ Bool.to_int plus ]);
  add_ints b
    [ Bool.to_int t.config.window; t.config.checkpoint_every; t.config.max_restarts ];
  let fc = t.config.feed in
  str "\nfeedcfg ";
  add_int b fc.Feed.reorder_window;
  List.iter
    (fun p ->
      chr ' ';
      chr (policy_char p))
    [ fc.Feed.late; fc.Feed.duplicate; fc.Feed.non_finite ];
  chr ' ';
  (match fc.Feed.overload_budget with None -> str "none" | Some n -> add_int b n);
  str "\nsub ";
  add_labels b t.subscription;
  str "\nckpt ";
  str (String.escaped (Feed.encode t.ckpt));
  str "\ncb ";
  add_int b (List.length t.ckpt_buffer_rev);
  List.iter
    (fun (seq, e) ->
      str "\ne ";
      add_int b seq;
      chr ' ';
      add_float b e.Online.emit_time;
      chr ' ';
      add_post b e.Online.post)
    (List.rev t.ckpt_buffer_rev);
  str "\nj ";
  add_int b t.journal_n;
  chr '\n';
  List.iter (add_post_line b) (List.rev t.journal_rev);
  str "pq ";
  add_int b t.pending_n;
  chr '\n';
  Queue.iter (add_post_line b) t.pending_q;
  Buffer.contents b

let of_blob s =
  let lines = String.split_on_char '\n' s in
  let lines = ref (List.filter (fun l -> l <> "") lines) in
  let next tag =
    match !lines with
    | l :: rest -> (
      lines := rest;
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = tag ->
        String.sub l (i + 1) (String.length l - i - 1)
      | _ -> raise (Feed.Corrupt (Printf.sprintf "expected %S line, got %S" tag l)))
    | [] -> raise (Feed.Corrupt (Printf.sprintf "missing %S line" tag))
  in
  let tokens s = String.split_on_char ' ' s in
  let int_tok s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> raise (Feed.Corrupt (Printf.sprintf "bad int field %S" s))
  in
  let unescape s =
    try Scanf.unescaped s
    with Scanf.Scan_failure _ -> raise (Feed.Corrupt "bad escaped field")
  in
  let name = unescape (next "name") in
  let degraded, quarantined, crashes =
    match tokens (next "flags") with
    | [ d; q; c ] -> (int_tok d = 1, int_tok q = 1, int_tok c)
    | _ -> raise (Feed.Corrupt "bad flags line")
  in
  let acked, applied, rejected =
    match tokens (next "counters") with
    | [ a; p; r ] -> (int_tok a, int_tok p, int_tok r)
    | _ -> raise (Feed.Corrupt "bad counters line")
  in
  let reported_upto, ckpt_emit_seq =
    match tokens (next "seqs") with
    | [ r; c ] -> (int_tok r, int_tok c)
    | _ -> raise (Feed.Corrupt "bad seqs line")
  in
  let lambda, mode, window, checkpoint_every, max_restarts =
    match tokens (next "config") with
    | [ lambda; "instant"; w; ce; mr ] ->
      (float_of_hex lambda, Online.Instant, int_tok w = 1, int_tok ce, int_tok mr)
    | [ lambda; "delayed"; tau; plus; w; ce; mr ] ->
      ( float_of_hex lambda,
        Online.Delayed { tau = float_of_hex tau; plus = int_tok plus = 1 },
        int_tok w = 1,
        int_tok ce,
        int_tok mr )
    | _ -> raise (Feed.Corrupt "bad config line")
  in
  let feed_config =
    match tokens (next "feedcfg") with
    | [ rw; late; dup; nf; ob ] when
        String.length late = 1 && String.length dup = 1 && String.length nf = 1
      ->
      {
        Feed.reorder_window = int_tok rw;
        late = policy_of_char late.[0];
        duplicate = policy_of_char dup.[0];
        non_finite = policy_of_char nf.[0];
        overload_budget = (if ob = "none" then None else Some (int_tok ob));
      }
    | _ -> raise (Feed.Corrupt "bad feedcfg line")
  in
  let subscription = labels_of_field (next "sub") in
  let ckpt = Feed.decode (unescape (next "ckpt")) in
  let count tag = int_tok (next tag) in
  let ckpt_buffer =
    List.init (count "cb") (fun _ ->
        match tokens (next "e") with
        | seq :: emit :: post_toks ->
          ( int_tok seq,
            {
              Online.emit_time = float_of_hex emit;
              post = post_of_tokens post_toks;
            } )
        | _ -> raise (Feed.Corrupt "bad ckpt-buffer entry"))
  in
  let journal =
    List.init (count "j") (fun _ -> post_of_tokens (tokens (next "p")))
  in
  let pending = List.init (count "pq") (fun _ -> post_of_tokens (tokens (next "p"))) in
  let config =
    { lambda; mode; feed = feed_config; window; checkpoint_every; max_restarts }
  in
  let pending_q = Queue.create () in
  List.iter (fun p -> Queue.push p pending_q) pending;
  let feed = Feed.of_snapshot ckpt in
  let t =
    {
      name;
      subscription;
      config;
      degraded;
      quarantined;
      crashes;
      feed;
      ckpt;
      ckpt_emit_seq;
      ckpt_buffer_rev = List.rev ckpt_buffer;
      journal_rev = List.rev journal;
      journal_n = List.length journal;
      pending_q;
      pending_n = List.length pending;
      emit_seq = 0;
      reported_upto;
      buffer_rev = [];
      acked;
      applied;
      rejected;
      breaker = Supervisor.Breaker.create ();
    }
  in
  (* Rebuilding from durable state IS the crash-recovery path: replay the
     journal to regenerate the live feed, sequence counter, and buffer. *)
  replay_into t feed;
  t
