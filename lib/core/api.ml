let get_phys infra = Infra.get_phys infra
let get_virt infra vol = Infra.get_virt infra vol

let phys_tetris bucket =
  match Bucket.tetris bucket with
  | Some t -> t
  | None -> invalid_arg "Api: operation requires a physical bucket"

let use bucket ~payload =
  let tetris = phys_tetris bucket in
  let vbn = Bucket.take bucket in
  if vbn >= 0 then Tetris.enqueue tetris ~vbn ~payload;
  vbn

let use_virt bucket =
  (match Bucket.target bucket with
  | Bucket.Virt _ -> ()
  | Bucket.Phys _ -> invalid_arg "Api.use_virt: physical bucket");
  Bucket.take bucket

let take_deferred bucket =
  ignore (phys_tetris bucket);
  Bucket.take bucket

let enqueue_deferred bucket ~vbn ~payload = Tetris.enqueue (phys_tetris bucket) ~vbn ~payload

let put infra bucket =
  (match Bucket.tetris bucket with Some t -> Tetris.bucket_done t | None -> ());
  Infra.put infra bucket
