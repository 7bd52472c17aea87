(* Workload definitions: the profile fleet, the post stream and the
   request schedule of each serving workload, all drawn from the seed.
   The daemon only ever sees the generated protocol lines. *)

type profile = {
  name : string;
  lambda : float;
  mode : Mqdp.Online.mode;
  window : bool;
  labels : int list;  (* ascending *)
}

type post = { id : int; value : float; labels : int list }

(* Shared by every serving workload: the share of posts carrying two
   labels, the publisher's pipeline depth in the capacity phase (deep
   enough that the daemon never waits for the generator), and FEEDs per
   TICK in both phases. *)
let two_label_share = 0.2
let depth = 128
let tick_every = 16

type spec = {
  name : string;
  fleet_size : int;
  make_profile : Util.Rng.t -> int -> profile;
  num_labels : int;
  step : float;  (* logical seconds between consecutive posts *)
  cap_posts : int;  (* posts in each round's capacity phase *)
  rate : float;  (* open-loop FEEDs per second *)
  report_rate : float;  (* subscriber REPORTs per second *)
  query_rate : float;  (* subscriber QUERYs per second *)
  checkpoint_every : int;  (* publisher requests per CHECKPOINT; 0 = never *)
  durable : bool;  (* named sessions, --state-dir, fsync, kill -9 at the end *)
  sample : int;  (* profiles whose output is checked against a reference *)
}

let mode_arg = function
  | Mqdp.Online.Instant -> "instant"
  | Mqdp.Online.Delayed { tau; plus = false } -> Printf.sprintf "delayed:%g" tau
  | Mqdp.Online.Delayed { tau; plus = true } -> Printf.sprintf "delayed+:%g" tau

let add_line (p : profile) =
  Printf.sprintf "ADD %s %g %s %s%s" p.name p.lambda (mode_arg p.mode)
    (String.concat "," (List.map string_of_int p.labels))
    (if p.window then "" else " nowindow")

let feed_line (p : post) =
  Printf.sprintf "FEED %d %.17g %s" p.id p.value
    (String.concat "," (List.map string_of_int p.labels))

let distinct_labels rng ~n ~k =
  let rec go acc =
    if List.length acc = k then List.sort compare acc
    else
      let l = Util.Rng.int rng n in
      go (if List.mem l acc then acc else l :: acc)
  in
  go []

let delayed tau = Mqdp.Online.Delayed { tau; plus = false }

(* Four of eight labels for window profile [i]: consecutive groups of
   eight profiles use strides 1, 2 and 3 from base [i mod 8], so each
   group holds every label exactly four times. With only tens of
   profiles, independent draws would load some labels far more heavily
   than others from one seed to the next. *)
let balanced_labels i =
  let stride = 1 + (i / 8 mod 3) in
  List.sort_uniq compare (List.init 4 (fun k -> (i + (k * stride)) mod 8))

(* Five of 100 labels for fanout profile [i]: each block of 100
   consecutive profiles uses one stride (1 to 20), so every block holds
   every label exactly five times and every label has the same number of
   subscribers. Independent draws leave label loads differing by a
   tenth or more from one seed to the next; the seed still draws every
   post and the request schedule. *)
let block_labels i =
  let stride = 1 + (i / 100 mod 20) in
  List.sort_uniq compare (List.init 5 (fun k -> (i + (k * stride)) mod 100))

(* Thousands of windowless profiles over ~100 labels: each FEED reaches
   about a hundred of them, so the work is fan-out and ticks. Half the
   profiles are instant and half delayed, alternating. *)
let fanout =
  {
    name = "fanout";
    fleet_size = 2000;
    make_profile =
      (fun _ i ->
        {
          name = Printf.sprintf "f%04d" i;
          lambda = 60.;
          mode = (if i mod 2 = 0 then Mqdp.Online.Instant else delayed 30.);
          window = false;
          labels = block_labels i;
        });
    num_labels = 100;
    step = 0.05;
    cap_posts = 2000;
    rate = 100.;
    report_rate = 40.;
    query_rate = 0.;
    checkpoint_every = 0;
    durable = false;
    sample = 12;
  }

(* Tens of windowed profiles with tau >> lambda over a small label space:
   every live window holds thousands of posts, fan-out is trivial, and
   the work is window maintenance, auto-checkpoints and QUERY solves. *)
let window_query =
  {
    name = "window_query";
    fleet_size = 48;
    make_profile =
      (fun _ i ->
        {
          name = Printf.sprintf "w%02d" i;
          lambda = 30.;
          mode = delayed 600.;
          window = true;
          labels = balanced_labels i;
        });
    num_labels = 8;
    step = 0.2;
    cap_posts = 3000;
    rate = 60.;
    report_rate = 20.;
    query_rate = 10.;
    checkpoint_every = 0;
    durable = false;
    sample = 8;
  }

(* A mid-sized mixed fleet on named sessions with --state-dir and fsync:
   the same verbs as fanout, but every command pays a journal append and
   every CHECKPOINT writes a snapshot epoch. *)
let durable =
  {
    name = "durable";
    fleet_size = 400;
    make_profile =
      (fun rng i ->
        let kind = Util.Rng.int rng 4 in
        {
          name = Printf.sprintf "d%03d" i;
          lambda = 30.;
          mode = (match kind with 0 -> Mqdp.Online.Instant | 1 -> delayed 120. | _ -> delayed 30.);
          window = kind = 1;
          labels = distinct_labels rng ~n:50 ~k:3;
        });
    num_labels = 50;
    step = 0.1;
    cap_posts = 1500;
    rate = 150.;
    report_rate = 40.;
    query_rate = 0.;
    checkpoint_every = 256;
    durable = true;
    sample = 12;
  }

let serving = [ fanout; window_query; durable ]

let fleet spec rng = Array.init spec.fleet_size (spec.make_profile rng)

(* Post [k] (1-based): strictly increasing values, one or two labels. *)
let make_posts spec rng n =
  Array.init n (fun k ->
      let k = k + 1 in
      let nl = if Util.Rng.float rng 1. < two_label_share then 2 else 1 in
      {
        id = k;
        value = float_of_int k *. spec.step;
        labels = distinct_labels rng ~n:spec.num_labels ~k:nl;
      })

let to_post (p : post) =
  Mqdp.Post.make ~id:p.id ~value:p.value ~labels:(Mqdp.Label_set.of_list p.labels)

(* The post as profile [pr] receives it: labels projected onto its
   subscription, [None] when they do not meet. *)
let project (pr : profile) (p : post) =
  match List.filter (fun l -> List.mem l pr.labels) p.labels with
  | [] -> None
  | ls -> Some (Mqdp.Post.make ~id:p.id ~value:p.value ~labels:(Mqdp.Label_set.of_list ls))

(* Poisson arrival times over [0, duration) at [rate] per second. *)
let arrivals rng ~rate ~duration =
  if rate <= 0. then []
  else
    let rec go t acc =
      let t = t +. Util.Rng.exponential rng ~rate in
      if t >= duration then List.rev acc else go t (t :: acc)
    in
    go 0. []
