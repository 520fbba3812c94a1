(* In-memory spans recorded around the benchmark's calls into each
   layer. The library's own Obs spans are left off: a span here times a
   public entry point from the outside, so the layer map needs no edit
   under lib/. Nothing is recorded until [enable]; a disabled [run] is
   one flag check. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* id of the enclosing span, -1 at the root *)
  sample : int;  (* the benchmark sample that caused it *)
}

let on = ref false
let recorded : t list ref = ref [] (* newest first *)
let open_ids : int list ref = ref []
let next_id = ref 0
let sample_id = ref (-1)

let enable () =
  recorded := [];
  open_ids := [];
  on := true

let disable () = on := false
let set_sample i = sample_id := i

let run name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with [] -> -1 | p :: _ -> p in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_ids := List.tl !open_ids;
        recorded :=
          { id; name; start; stop; parent; sample = !sample_id } :: !recorded)
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) (all ())

(* [(sample, summed duration)] of the spans called [name], in sample
   order — the unit for layers called more than once per sample. *)
let by_sample name =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let v = Option.value (Hashtbl.find_opt sums s.sample) ~default:0. in
      Hashtbl.replace sums s.sample (v +. duration s))
    (named name);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [] |> List.sort compare

let per_sample name = List.map snd (by_sample name)

let total name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

(* Self time: the span minus the part its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let v = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
        Hashtbl.replace children s.parent (v +. duration s))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      (s, duration s -. c))
    spans

type row = { layer : string; count : int; self_s : float; share : float }

(* One row per span name, largest self time first, then the remainder
   of [wall] that no root span covers as [unattributed]. *)
let layer_table ~wall =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let count, acc =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.)
      in
      Hashtbl.replace rows s.name (count + 1, acc +. self))
    (self_times (all ()));
  let covered =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
      0. (all ())
  in
  let named =
    Hashtbl.fold
      (fun layer (count, self_s) acc ->
        { layer; count; self_s; share = self_s /. wall } :: acc)
      rows []
    |> List.sort (fun a b -> compare b.self_s a.self_s)
  in
  let rest = Float.max 0. (wall -. covered) in
  named @ [ { layer = "unattributed"; count = 0; self_s = rest; share = rest /. wall } ]

let render_table rows =
  let b = Buffer.create 512 in
  Printf.bprintf b "%-28s %8s %12s %8s\n" "layer" "count" "self_ms" "share";
  List.iter
    (fun r ->
      Printf.bprintf b "%-28s %8d %12.3f %7.2f%%\n" r.layer r.count
        (r.self_s *. 1e3) (r.share *. 100.))
    rows;
  Buffer.contents b

(* Chrome trace_event JSON: complete ("X") events in microseconds since
   the first span, loadable in chrome://tracing or Perfetto. *)
let write_chrome path =
  let module Json = Pipeline_serve.Json in
  let spans = all () in
  let epoch = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let int i = Json.Number (float_of_int i) in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.String s.name);
                ("ph", Json.String "X");
                ("pid", int 1);
                ("tid", int 1);
                ("ts", Json.Number ((s.start -. epoch) *. 1e6));
                ("dur", Json.Number (duration s *. 1e6));
                ("args", Json.Obj [ ("id", int s.id); ("parent", int s.parent); ("sample", int s.sample) ]);
              ])))
    spans;
  output_string oc "\n]\n";
  close_out oc
