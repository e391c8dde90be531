"""Multi-task misinformation-classifier training framework.

One shared text encoder, per-task MLP heads, two-stage training (joint
multi-task optimization with balanced oversampling, then per-task
fine-tuning), plus few-shot and leave-one-event-out evaluation harnesses.
"""

from .data import (
    Dataset,
    Example,
    SplitDataset,
    SyntheticSuiteConfig,
    generate_synthetic_suite,
    leave_one_event_folds,
    load_dataset,
    save_dataset,
    split,
)
from .encoder import EncoderConfig, EncoderParams, init_encoder
from .evaluation import (
    FewShotConfig,
    FewShotResult,
    LoocvResult,
    ablation_run,
    evaluate_model,
    fewshot_run,
    loocv_run,
    train_stage1,
)
from .metrics import MetricsReport, accuracy, macro_f1, seed_average
from .multitask import MultiTaskModel, build_model, copy_dicts, predict, register_task, task_loss
from .tasks import BUILTIN_TASKS, TaskSpec
from .tokenization import Batch, Vocabulary, build_vocab, encode, pad_batch
from .training import (
    TrainConfig,
    TrainHistory,
    adam_step,
    finetune_task,
    lr_at,
    make_epoch_schedule,
    train_multitask,
)

__version__ = "0.1.0"
