"""Two-modality CNN classifier with channel/spatial attention fusion."""

from .errors import (
    ConfigError,
    CsafmError,
    DataError,
    DimensionError,
    EmptyClassError,
    NumericalError,
    PairingError,
    ParameterError,
    PgmFormatError,
    WeightFileError,
    WeightFileMagicError,
    WeightFileShapeError,
    WeightFileStructureError,
    WeightFileTruncatedError,
    WeightFileValueError,
    WeightFileVersionError,
)
from .tensor import (
    Rng,
    Tensor,
    derive_seed,
    ewise_add,
    ewise_mul,
    no_grad,
    one_minus,
    rng_fill,
    tensor_from_blob,
    tensor_to_blob,
)
from .ops import (
    BnParams,
    ConvParams,
    batchnorm,
    conv2d,
    flatten,
    fully_connected,
    gap,
    maxpool2d,
    mean_all,
    pwconv,
    relu,
    sigmoid,
    softmax_xent,
    unflatten,
)
from .backbone import (
    BackboneState,
    backbone_features,
    feature_shape,
    scaled_channels,
)
from .fusion import (
    ChannelAttnState,
    FusionState,
    FusionVariant,
    SpatialAttnState,
    ablation_fuse,
    center_crop,
    channel_attention_map,
    concat_channels,
    csafm_fuse,
    ifi,
    spatial_attention_map,
    standardize,
)
from .model import FpvCsafmModel, UnimodalClassifier, load, save
from .train import (
    AdamState,
    SplitPlan,
    TrainResult,
    adam_step,
    batch_tensors,
    cir,
    class_major,
    history_csv,
    make_split,
    predict,
    train_loop,
)
from .data import (
    PairedSample,
    SynthSpec,
    ingest_dir,
    preprocess,
    read_pgm,
    synth_generate,
    write_pgm,
)
from .config import RunConfig, load_config, resolve_dataset
from .gradcheck import check_gradients, numeric_grad, rel_error

__version__ = "0.1.0"
