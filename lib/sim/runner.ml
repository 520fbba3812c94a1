open Pipeline_model

type mode = One_port_no_overlap | Multi_port_overlap

(* Boundary bandwidths, mirroring Cost: interval 0 reads from the
   outside world, interval m-1 writes to it, inner boundaries use the
   link between the two enrolled processors. *)
let in_bandwidth platform mapping j =
  if j = 0 then Platform.io_bandwidth platform (Mapping.proc mapping 0)
  else
    Platform.bandwidth platform
      (Mapping.proc mapping (j - 1))
      (Mapping.proc mapping j)

let out_bandwidth platform mapping j =
  let m = Mapping.m mapping in
  if j = m - 1 then Platform.io_bandwidth platform (Mapping.proc mapping j)
  else
    Platform.bandwidth platform (Mapping.proc mapping j)
      (Mapping.proc mapping (j + 1))

let run ?(mode = One_port_no_overlap) (inst : Instance.t) mapping ~datasets =
  if datasets < 1 then invalid_arg "Runner.run: datasets must be >= 1";
  if Mapping.n mapping <> Application.n inst.app then
    invalid_arg "Runner.run: mapping does not match the application";
  if not (Mapping.valid_on mapping inst.platform) then
    invalid_arg "Runner.run: mapping does not fit the platform";
  let app = inst.app and platform = inst.platform in
  let m = Mapping.m mapping in
  let proc j = Mapping.proc mapping j in
  let first j = Interval.first (Mapping.interval mapping j) in
  let last j = Interval.last (Mapping.interval mapping j) in
  let in_delta j = Application.delta app (first j - 1) in
  let out_delta j = Application.delta app (last j) in
  let comp_time j =
    Application.work_sum app (first j) (last j) /. Platform.speed platform (proc j)
  in
  let in_time j = in_delta j /. in_bandwidth platform mapping j in
  let out_time j = out_delta j /. out_bandwidth platform mapping j in
  let ops = ref [] in
  let emit kind interval dataset start finish =
    ops :=
      Op.{ kind; interval; proc = proc interval; dataset; start; finish } :: !ops
  in
  (match mode with
  | One_port_no_overlap ->
    (* avail.(j): when the single resource of interval j's processor is
       next free. A transfer engages both sides. *)
    let avail = Array.make m 0. in
    for t = 0 to datasets - 1 do
      for j = 0 to m - 1 do
        (* Input transfer: rendezvous with the upstream interval (the
           outside world for j = 0 is always ready). *)
        let sender_ready = if j = 0 then 0. else avail.(j - 1) in
        let start = Float.max sender_ready avail.(j) in
        let finish = start +. in_time j in
        emit Op.Receive j t start finish;
        if j > 0 then begin
          emit Op.Send (j - 1) t start finish;
          avail.(j - 1) <- finish
        end;
        avail.(j) <- finish;
        (* Computation. *)
        let c_start = avail.(j) in
        let c_finish = c_start +. comp_time j in
        emit Op.Compute j t c_start c_finish;
        avail.(j) <- c_finish
      done;
      (* Final output transfer to the sink. *)
      let start = avail.(m - 1) in
      let finish = start +. out_time (m - 1) in
      emit Op.Send (m - 1) t start finish;
      avail.(m - 1) <- finish
    done
  | Multi_port_overlap ->
    let in_avail = Array.make m 0. in
    let cpu_avail = Array.make m 0. in
    let out_avail = Array.make m 0. in
    (* comp_finish.(j): completion of interval j's computation for the
       dataset currently being scheduled. *)
    let comp_finish = Array.make m 0. in
    for t = 0 to datasets - 1 do
      for j = 0 to m - 1 do
        (* Input transfer: needs the upstream computation of this dataset
           (data ready), the upstream output port and our input port. *)
        let data_ready = if j = 0 then 0. else comp_finish.(j - 1) in
        let sender_port = if j = 0 then 0. else out_avail.(j - 1) in
        let start = Float.max data_ready (Float.max sender_port in_avail.(j)) in
        let finish = start +. in_time j in
        emit Op.Receive j t start finish;
        if j > 0 then begin
          emit Op.Send (j - 1) t start finish;
          out_avail.(j - 1) <- finish
        end;
        in_avail.(j) <- finish;
        (* Computation on the CPU resource. *)
        let c_start = Float.max finish cpu_avail.(j) in
        let c_finish = c_start +. comp_time j in
        emit Op.Compute j t c_start c_finish;
        cpu_avail.(j) <- c_finish;
        comp_finish.(j) <- c_finish
      done;
      let start = Float.max comp_finish.(m - 1) out_avail.(m - 1) in
      let finish = start +. out_time (m - 1) in
      emit Op.Send (m - 1) t start finish;
      out_avail.(m - 1) <- finish
    done);
  Trace.make ~datasets ~intervals:m ~procs:(Mapping.procs mapping) (List.rev !ops)
