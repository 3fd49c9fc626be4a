(* Helpers shared by the three workloads: wall-clock phases with
   per-operation latency samples, the traced run's span recorder, and the
   one-line JSON a round prints for perfbench/run.py to aggregate. *)

(* Seconds on the monotonic clock, read in nanoseconds: point operations
   here take a few µs, below the resolution of Unix.gettimeofday. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A JSON string literal (UTF-8 passes through unescaped). *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* samples                                                             *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let append ~into t =
    for i = 0 to t.n - 1 do
      add into t.a.(i)
    done

  let to_array t = Array.sub t.a 0 t.n

  let median t =
    if t.n = 0 then 0.0
    else begin
      let a = to_array t in
      Array.sort compare a;
      let m = t.n / 2 in
      if t.n mod 2 = 1 then a.(m) else (a.(m - 1) +. a.(m)) /. 2.0
    end
end

(* ------------------------------------------------------------------ *)
(* spans (traced run only)                                             *)

(* Spans are recorded from the benchmark's own code around each call into
   a layer.  A span has a name, a start, an end, a parent span (0 = the
   operation's root) and the id of the client operation it belongs to;
   [phase] says which part of the round it fell in.  They stay in memory
   until the round ends. *)
module Spans = struct
  type span = {
    op : int;
    id : int;
    parent : int;
    name : string;
    phase : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let phase = ref "setup"
  let lock = Mutex.create ()
  let buf : span list ref = ref []
  let next_id = Atomic.make 1
  let next_op = Atomic.make 1
  let new_op () = if !on then Atomic.fetch_and_add next_op 1 else 0

  let push s =
    Mutex.lock lock;
    buf := s :: !buf;
    Mutex.unlock lock

  (* [record ~op ~parent name f] runs [f id] inside a span; [id] is the
     parent to give spans nested in it.  Untraced, it is [f 0]. *)
  let record ~op ~parent name f =
    if not !on then f 0
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let phase = !phase in
      let t0 = now () in
      let finish () = push { op; id; parent; name; phase; t0; t1 = now () } in
      match f id with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  let all () =
    Mutex.lock lock;
    let l = !buf in
    Mutex.unlock lock;
    l

  (* Median duration in µs of the spans named [name] in [phase]; 0 when
     there are none. *)
  let median_us ~phase name =
    let s = Samples.create () in
    List.iter
      (fun sp ->
        if sp.name = name && sp.phase = phase then Samples.add s ((sp.t1 -. sp.t0) *. 1e6))
      (all ());
    Samples.median s

  let total_s name =
    List.fold_left
      (fun acc sp -> if sp.name = name then acc +. (sp.t1 -. sp.t0) else acc)
      0.0 (all ())

  (* One JSON object per line; times in µs from the first span. *)
  let write ~round path =
    let spans = List.rev (all ()) in
    let base = List.fold_left (fun m s -> min m s.t0) infinity spans in
    let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"round\":%d,\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%s,\"phase\":%s,\"start_us\":%.1f,\"end_us\":%.1f}\n"
          round s.op s.id s.parent (json_string s.name) (json_string s.phase)
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. base) *. 1e6))
      spans;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* phases                                                              *)

type phase = {
  ph_name : string;
  mutable attempted : int;
  mutable failed : int;
  lat : Samples.t;  (** µs per completed client operation *)
  mutable wall : float;  (** seconds *)
  mutable minor_words : float;
  mutable major_collections : int;
  mutable counters : (string * int) list;  (** Obs counter deltas, traced run *)
}

let phase ph_name =
  {
    ph_name;
    attempted = 0;
    failed = 0;
    lat = Samples.create ();
    wall = 0.0;
    minor_words = 0.0;
    major_collections = 0;
    counters = [];
  }

let failures = ref []

let note_failure ph e =
  ph.failed <- ph.failed + 1;
  if List.length !failures < 5 then
    failures := Printf.sprintf "%s: %s" ph.ph_name (Printexc.to_string e) :: !failures

(* One client operation: counted, timed, and on exception counted as
   failed (and not timed).  The result comes back for checking outside
   the timed interval. *)
let op ph f =
  ph.attempted <- ph.attempted + 1;
  let t0 = now () in
  match f () with
  | r ->
      Samples.add ph.lat ((now () -. t0) *. 1e6);
      Some r
  | exception e ->
      note_failure ph e;
      None

(* Merge a client thread's own phase record into the phase's total. *)
let merge ~into ph =
  into.attempted <- into.attempted + ph.attempted;
  into.failed <- into.failed + ph.failed;
  Samples.append ~into:into.lat ph.lat

(* Run [f] as phase [ph]: wall time, GC activity and (when tracing) the
   Obs counter deltas over exactly that interval. *)
let measure ph f =
  Spans.phase := ph.ph_name;
  let traced = !Spans.on in
  let c0 = if traced then Obs.Counters.snapshot () else [] in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  f ();
  ph.wall <- now () -. t0;
  let g1 = Gc.quick_stat () in
  ph.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
  ph.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
  if traced then ph.counters <- Obs.Counters.diff (Obs.Counters.snapshot ()) c0

let counter ph name = try List.assoc name ph.counters with Not_found -> 0

(* The live OCaml heap after a full major collection: what the run left
   retained (tables, version chains, the in-memory redo log).  The peak
   heap size moves in the runtime's growth steps, which hide small
   changes. *)
let heap_live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Median µs of [f x] over [xs] (used for the parser and predicate
   extraction, timed outside the client loop on sampled statements). *)
let median_call_us f xs =
  let s = Samples.create () in
  List.iter
    (fun x ->
      let t0 = now () in
      ignore (Sys.opaque_identity (f x));
      Samples.add s ((now () -. t0) *. 1e6))
    xs;
  Samples.median s

(* ------------------------------------------------------------------ *)
(* checks                                                              *)

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* ------------------------------------------------------------------ *)
(* the round's report                                                  *)

type round = {
  setup_s : float;
  phases : phase list;  (** warmup, idle, mig *)
  backfill_s : float;
  heap_mb : float;
  layers : (string * float) list;
}

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_round ~workload ~seed ~traced ~correct ~check_msg r =
  let b = Buffer.create 65536 in
  let add = Buffer.add_string b in
  add
    (Printf.sprintf "{\"workload\":%s,\"seed\":%d,\"traced\":%b,\"correct\":%b,\"check\":%s,"
       (json_string workload) seed traced correct (json_string check_msg));
  add
    (Printf.sprintf "\"setup_s\":%s,\"backfill_s\":%s,\"heap_live_mb\":%s,"
       (json_num r.setup_s) (json_num r.backfill_s) (json_num r.heap_mb));
  add
    (Printf.sprintf "\"failures\":[%s],"
       (String.concat "," (List.rev_map json_string !failures)));
  add "\"phases\":{";
  add
    (String.concat ","
       (List.map
          (fun ph ->
            let lat =
              String.concat ","
                (Array.to_list (Array.map (Printf.sprintf "%.2f") (Samples.to_array ph.lat)))
            in
            Printf.sprintf "%s:{\"attempted\":%d,\"failed\":%d,\"wall_s\":%s,\"lat_us\":[%s]}"
              (json_string ph.ph_name) ph.attempted ph.failed (json_num ph.wall) lat)
          r.phases));
  add "},\"layers\":{";
  add
    (String.concat ","
       (List.map (fun (k, v) -> json_string k ^ ":" ^ json_num v) r.layers));
  add "}}";
  Buffer.contents b

(* Per-layer metrics every workload reports from the phase records
   alone: GC activity and MVCC version walks per operation, per phase. *)
let phase_layers ~idle ~mig =
  let per_op ph x = ratio x (float_of_int ph.attempted) in
  [
    ("gc.minor_kw_per_op.idle", per_op idle (idle.minor_words /. 1e3));
    ("gc.minor_kw_per_op.mig", per_op mig (mig.minor_words /. 1e3));
    ("gc.major_collections.idle", float_of_int idle.major_collections);
    ("gc.major_collections.mig", float_of_int mig.major_collections);
    ("mvcc.version_walks_per_op.idle", per_op idle (float_of_int (counter idle "mvcc.version_walks")));
    ("mvcc.version_walks_per_op.mig", per_op mig (float_of_int (counter mig "mvcc.version_walks")));
  ]

(* Counter-derived metrics over the timed client phases. *)
let counter_layers phases =
  let sum name = List.fold_left (fun acc ph -> acc + counter ph name) 0 phases in
  let ops = List.fold_left (fun acc ph -> acc + ph.attempted) 0 phases in
  let hits = sum "db.stmt_cache.hits" and misses = sum "db.stmt_cache.misses" in
  [
    ("db.stmt_cache_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
    ("index.probes_per_op", ratio (float_of_int (sum "db.index.probes")) (float_of_int ops));
    ("lock.waits", float_of_int (sum "db.lock.waits"));
  ]
