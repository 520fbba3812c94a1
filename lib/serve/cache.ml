(* Platform-fingerprint-keyed LRU of representative instances. See the
   .mli and DESIGN.md §12 for the semantics. *)

open Pipeline_model

let platform_cap = 64
let app_cap = 16

type app_slot = { app_fp : string; instance : Instance.t }

type entry = { platform : Platform.t; mutable apps : app_slot list (* MRU first *) }

type stats = {
  platform_hits : int;
  platform_misses : int;
  app_hits : int;
  app_misses : int;
  evictions : int;
}

type t = {
  mutable entries : (string * entry) list; (* MRU first *)
  mutable platform_hits : int;
  mutable platform_misses : int;
  mutable app_hits : int;
  mutable app_misses : int;
  mutable evictions : int;
}

let create () =
  {
    entries = [];
    platform_hits = 0;
    platform_misses = 0;
    app_hits = 0;
    app_misses = 0;
    evictions = 0;
  }

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Hex-float rendering is injective on floats (same idiom as
   Churn.fingerprint), so distinct platforms cannot share a key. *)
let platform_fingerprint platform =
  let p = Platform.p platform in
  let b = Buffer.create 64 in
  Printf.bprintf b "p%d" p;
  if Platform.is_comm_homogeneous platform then
    (* One common bandwidth everywhere (I/O included). *)
    Printf.bprintf b "|ch%h"
      (if p >= 2 then Platform.bandwidth platform 0 1
       else Platform.io_bandwidth platform 0)
  else begin
    Buffer.add_string b "|fh";
    for u = 0 to p - 1 do
      Printf.bprintf b "|i%h" (Platform.io_bandwidth platform u);
      for v = u + 1 to p - 1 do
        Printf.bprintf b ",%h" (Platform.bandwidth platform u v)
      done
    done
  end;
  for u = 0 to p - 1 do
    Printf.bprintf b "|s%h" (Platform.speed platform u)
  done;
  Buffer.contents b

let app_fingerprint app =
  let b = Buffer.create 64 in
  Printf.bprintf b "n%d" (Application.n app);
  Array.iter (fun w -> Printf.bprintf b "|w%h" w) (Application.works app);
  Array.iter (fun d -> Printf.bprintf b "|d%h" d) (Application.deltas app);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

type lookup = {
  instance : Instance.t;
  platform_hit : bool;
  app_hit : bool;
}

(* Move-to-front on an assoc list: entry counts are small (tens), so the
   O(cap) scan is noise next to a single solve. *)
let promote key list =
  match List.assoc_opt key list with
  | None -> None
  | Some v -> Some (v, (key, v) :: List.remove_assoc key list)

let truncate cap list =
  let rec take n = function
    | [] -> ([], 0)
    | _ :: _ as rest when n = 0 -> ([], List.length rest)
    | x :: rest ->
      let kept, dropped = take (n - 1) rest in
      (x :: kept, dropped)
  in
  take cap list

(* The representative instance: the entry's physical platform paired
   with this request's application. Later requests with the same
   fingerprints get these very values, and the engine LRU keys on
   physical equality, so their solves reuse the engine the first one
   built for as long as the domain's engine LRU still holds it. *)
let new_slot ~app_fp (request : Instance.t) platform =
  let instance =
    Instance.make ~id:request.Instance.id ~seed:request.Instance.seed
      request.Instance.app platform
  in
  { app_fp; instance }

let canonical t (request : Instance.t) =
  let platform_fp = platform_fingerprint request.Instance.platform in
  let app_fp = app_fingerprint request.Instance.app in
  match promote platform_fp t.entries with
  | Some (entry, reordered) ->
    t.entries <- reordered;
    t.platform_hits <- t.platform_hits + 1;
    let slot, app_hit =
      match
        List.find_opt (fun slot -> slot.app_fp = app_fp) entry.apps
      with
      | Some slot ->
        t.app_hits <- t.app_hits + 1;
        (slot, true)
      | None ->
        t.app_misses <- t.app_misses + 1;
        (new_slot ~app_fp request entry.platform, false)
    in
    let others = List.filter (fun s -> s.app_fp <> app_fp) entry.apps in
    let kept, _ = truncate app_cap (slot :: others) in
    entry.apps <- kept;
    { instance = slot.instance; platform_hit = true; app_hit }
  | None ->
    t.platform_misses <- t.platform_misses + 1;
    t.app_misses <- t.app_misses + 1;
    let platform = request.Instance.platform in
    let slot = new_slot ~app_fp request platform in
    let entry = { platform; apps = [ slot ] } in
    let kept, dropped = truncate platform_cap ((platform_fp, entry) :: t.entries) in
    t.entries <- kept;
    t.evictions <- t.evictions + dropped;
    { instance = slot.instance; platform_hit = false; app_hit = false }

let stats t =
  {
    platform_hits = t.platform_hits;
    platform_misses = t.platform_misses;
    app_hits = t.app_hits;
    app_misses = t.app_misses;
    evictions = t.evictions;
  }
